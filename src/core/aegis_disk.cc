#include "src/core/aegis.h"

#include <algorithm>

namespace xok::aegis {

using hw::Instr;

// --- Disk multiplexing (§2: protect disks without understanding file
// systems) ---

Result<Aegis::DiskExtentGrant> Aegis::SysAllocDiskExtent(uint32_t blocks) {
  SyscallScope scope(*this, xtrace::Sys::kAllocDiskExtent);
  machine_.Charge(kSyscallEntry + Instr(20) + kSyscallExit);
  Env& env = CurrentEnv();
  if (disk_ == nullptr) {
    return Status::kErrUnsupported;
  }
  if (blocks == 0 || disk_alloc_cursor_ + blocks > disk_->block_count()) {
    return Status::kErrNoResources;
  }
  DiskExtent extent;
  extent.first_block = disk_alloc_cursor_;
  extent.blocks = blocks;
  extent.owner = env.id;
  extent.live = true;
  disk_alloc_cursor_ += blocks;
  extents_.push_back(extent);
  const uint32_t id = static_cast<uint32_t>(extents_.size() - 1);
  DiskExtentGrant grant;
  grant.extent = id;
  grant.first_block = extent.first_block;
  grant.blocks = blocks;
  grant.cap = authority_.Mint(cap::ResourceId{cap::ResourceKind::kDiskExtent, id},
                              cap::kAllRights, extent.epoch);
  return grant;
}

Status Aegis::SysFreeDiskExtent(uint32_t extent, const cap::Capability& cap) {
  SyscallScope scope(*this, xtrace::Sys::kFreeDiskExtent);
  machine_.Charge(kSyscallEntry + kCapCheck + kSyscallExit);
  if (extent >= extents_.size() || !extents_[extent].live) {
    return Status::kErrNotFound;
  }
  if (!authority_.Check(cap, cap::ResourceId{cap::ResourceKind::kDiskExtent, extent},
                        cap::kRevoke, extents_[extent].epoch)) {
    return Status::kErrAccessDenied;
  }
  ReleaseExtent(extent);
  return Status::kOk;
}

void Aegis::ReleaseExtent(uint32_t extent) {
  extents_[extent].live = false;
  ++extents_[extent].epoch;  // Outstanding extent capabilities die.
}

uint32_t Aegis::ExtentsOf(EnvId owner) const {
  return static_cast<uint32_t>(std::count_if(
      extents_.begin(), extents_.end(),
      [owner](const DiskExtent& extent) { return extent.live && extent.owner == owner; }));
}

Status Aegis::DiskTransfer(uint32_t extent, const cap::Capability& extent_cap,
                           uint32_t block_in_extent, hw::PageId frame, bool write) {
  machine_.Charge(kSyscallEntry + 2 * kCapCheck);
  if (disk_ == nullptr) {
    machine_.Charge(kSyscallExit);
    return Status::kErrUnsupported;
  }
  if (extent >= extents_.size() || !extents_[extent].live ||
      block_in_extent >= extents_[extent].blocks) {
    machine_.Charge(kSyscallExit);
    return Status::kErrOutOfRange;
  }
  const uint32_t required = write ? cap::kWrite : cap::kRead;
  if (!authority_.Check(extent_cap, cap::ResourceId{cap::ResourceKind::kDiskExtent, extent},
                        required, extents_[extent].epoch)) {
    machine_.Charge(kSyscallExit);
    return Status::kErrAccessDenied;
  }
  // The DMA target/source frame must belong to the caller.
  Env& env = CurrentEnv();
  if (frame >= pages_.size() || pages_[frame].owner != env.id) {
    machine_.Charge(kSyscallExit);
    return Status::kErrAccessDenied;
  }
  const uint32_t block = extents_[extent].first_block + block_in_extent;
  Result<uint64_t> request =
      write ? disk_->SubmitWrite(block, frame) : disk_->SubmitRead(block, frame);
  if (!request.ok()) {
    machine_.Charge(kSyscallExit);
    return request.status();
  }
  Trace(xtrace::Event::kDiskSubmit, block, write ? 1u : 0u, static_cast<uint32_t>(*request));
  const Status result = AwaitDisk(env, *request);
  if (result == Status::kOk) {
    ++(write ? env.counters.disk_blocks_written : env.counters.disk_blocks_read);
  } else {
    ++env.counters.faults_injected;  // The media error landed on this env.
  }
  machine_.Charge(kSyscallExit);
  return result;
}

Status Aegis::AwaitDisk(Env& env, uint64_t request) {
  env.disk_pending = true;
  env.disk_result = Status::kOk;
  disk_waiters_[request] = env.id;
  while (env.disk_pending) {
    SysBlock();  // RetireDiskWaiter clears the flag; other wakes (death
                 // broadcasts) are spurious here and loop back.
  }
  return env.disk_result;
}

void Aegis::RetireDiskWaiter(uint64_t request, Status status) {
  auto it = disk_waiters_.find(request);
  if (it == disk_waiters_.end()) {
    return;
  }
  Env* waiter = FindEnv(it->second);
  disk_waiters_.erase(it);
  if (waiter != nullptr && waiter->state != EnvState::kExited) {
    waiter->disk_pending = false;
    waiter->disk_result = status;
    WakeEnvInternal(*waiter);
  }
}

Status Aegis::SysDiskRead(uint32_t extent, const cap::Capability& extent_cap,
                          uint32_t block_in_extent, hw::PageId frame) {
  SyscallScope scope(*this, xtrace::Sys::kDiskRead);
  return DiskTransfer(extent, extent_cap, block_in_extent, frame, /*write=*/false);
}

Status Aegis::SysDiskWrite(uint32_t extent, const cap::Capability& extent_cap,
                           uint32_t block_in_extent, hw::PageId frame) {
  SyscallScope scope(*this, xtrace::Sys::kDiskWrite);
  return DiskTransfer(extent, extent_cap, block_in_extent, frame, /*write=*/true);
}

Status Aegis::SysDiskBarrier(uint32_t extent, const cap::Capability& extent_cap) {
  SyscallScope scope(*this, xtrace::Sys::kDiskBarrier);
  machine_.Charge(kSyscallEntry + kCapCheck);
  if (disk_ == nullptr) {
    machine_.Charge(kSyscallExit);
    return Status::kErrUnsupported;
  }
  if (extent >= extents_.size() || !extents_[extent].live) {
    machine_.Charge(kSyscallExit);
    return Status::kErrOutOfRange;
  }
  if (!authority_.Check(extent_cap, cap::ResourceId{cap::ResourceKind::kDiskExtent, extent},
                        cap::kWrite, extents_[extent].epoch)) {
    machine_.Charge(kSyscallExit);
    return Status::kErrAccessDenied;
  }
  Result<uint64_t> request = disk_->SubmitBarrier();
  if (!request.ok()) {
    machine_.Charge(kSyscallExit);
    return request.status();
  }
  Trace(xtrace::Event::kDiskBarrier, static_cast<uint32_t>(*request));
  const Status result = AwaitDisk(CurrentEnv(), *request);
  machine_.Charge(kSyscallExit);
  return result;
}

}  // namespace xok::aegis
