#include "src/core/aegis.h"

namespace xok::aegis {

using cap::Capability;
using hw::Instr;

// --- Physical memory: secure bindings ---

uint32_t Aegis::free_pages() const {
  uint32_t n = 0;
  for (const PageInfo& page : pages_) {
    n += (page.owner == kNoEnv) ? 1 : 0;
  }
  return n;
}

Result<PageGrant> Aegis::SysAllocPage(hw::PageId requested) {
  SyscallScope scope(*this, xtrace::Sys::kAllocPage);
  machine_.Charge(kSyscallEntry + Instr(20) + kSyscallExit);
  Env& env = CurrentEnv();
  hw::PageId page = requested;
  if (requested == kAnyPage) {
    page = pages_.size();
    for (hw::PageId p = 0; p < pages_.size(); ++p) {
      if (pages_[p].owner == kNoEnv) {
        page = p;
        break;
      }
    }
  }
  // Exposing physical names: a specific request succeeds iff that exact
  // frame is free (the libOS participates in every allocation decision).
  if (page >= pages_.size()) {
    return Status::kErrNoResources;
  }
  if (pages_[page].owner != kNoEnv) {
    return Status::kErrAlreadyExists;
  }
  pages_[page].owner = env.id;
  ++env.pages_owned;
  return PageGrant{page, authority_.Mint(PageResource(page), cap::kAllRights,
                                         pages_[page].epoch)};
}

Status Aegis::SysDeallocPage(hw::PageId page, const Capability& cap) {
  SyscallScope scope(*this, xtrace::Sys::kDeallocPage);
  machine_.Charge(kSyscallEntry + kCapCheck + Instr(10) + kSyscallExit);
  if (page >= pages_.size() || pages_[page].owner == kNoEnv) {
    return Status::kErrNotFound;
  }
  if (!authority_.Check(cap, PageResource(page), cap::kRevoke, pages_[page].epoch)) {
    return Status::kErrAccessDenied;
  }
  ReleasePage(page);
  return Status::kOk;
}

void Aegis::ReleasePage(hw::PageId page) {
  Env* owner = FindEnv(pages_[page].owner);
  if (owner != nullptr && owner->pages_owned > 0) {
    --owner->pages_owned;
  }
  pages_[page].owner = kNoEnv;
  ++pages_[page].epoch;  // Outstanding capabilities die here.
  FlushPageBindings(page);
}

bool Aegis::HoldsFrames(EnvId owner, hw::PageId first, uint32_t count) const {
  for (uint32_t i = 0; i < count; ++i) {
    const hw::PageId p = first + i;
    if (p >= pages_.size() || pages_[p].owner != owner) {
      return false;
    }
  }
  return true;
}

Status Aegis::SysTlbWrite(hw::Vaddr va, hw::PageId page, bool writable, const Capability& cap) {
  SyscallScope scope(*this, xtrace::Sys::kTlbWrite);
  machine_.Charge(kSyscallEntry + kCapCheck);
  if (page >= pages_.size()) {
    machine_.Charge(kSyscallExit);
    return Status::kErrOutOfRange;
  }
  const uint32_t required = cap::kRead | (writable ? cap::kWrite : 0u);
  if (!authority_.Check(cap, PageResource(page), required, pages_[page].epoch)) {
    machine_.Charge(kSyscallExit);
    return Status::kErrAccessDenied;
  }
  const hw::Asid asid = CurrentEnv().asid;
  hw::TlbEntry entry;
  entry.vpn = hw::VpnOf(va);
  entry.asid = asid;
  entry.pfn = page;
  entry.valid = true;
  entry.writable = writable;
  priv_.TlbWriteRandom(entry);
  machine_.Charge(kStlbInsert);
  stlb_.Insert(entry.vpn, asid, page, writable);
  machine_.Charge(kSyscallExit);
  return Status::kOk;
}

Status Aegis::SysTlbInvalidate(hw::Vaddr va) {
  SyscallScope scope(*this, xtrace::Sys::kTlbInvalidate);
  machine_.Charge(kSyscallEntry + Instr(4) + kSyscallExit);
  const hw::Asid asid = CurrentEnv().asid;
  priv_.TlbInvalidate(hw::VpnOf(va), asid);
  stlb_.Invalidate(hw::VpnOf(va), asid);
  return Status::kOk;
}

Status Aegis::SysTlbInvalidateRange(hw::Vaddr va, uint32_t pages) {
  SyscallScope scope(*this, xtrace::Sys::kTlbInvalidateRange);
  machine_.Charge(kSyscallEntry);
  const hw::Asid asid = CurrentEnv().asid;
  for (uint32_t i = 0; i < pages; ++i) {
    const hw::Vpn vpn = hw::VpnOf(va + i * hw::kPageBytes);
    machine_.Charge(Instr(2));
    machine_.tlb().Invalidate(vpn, asid);
    stlb_.Invalidate(vpn, asid);
  }
  machine_.Charge(kSyscallExit);
  return Status::kOk;
}

Result<Capability> Aegis::SysDeriveCap(const Capability& cap, uint32_t rights) {
  SyscallScope scope(*this, xtrace::Sys::kDeriveCap);
  machine_.Charge(kSyscallEntry + 2 * kCapCheck + kSyscallExit);
  return authority_.Derive(cap, rights);
}

// TLB shootdown, the software half: invalidate a reclaimed translation in
// every *other* CPU's TLB. Synchronous, as real shootdowns are — the
// initiator may not reuse the frame (or the asid) until every CPU has
// dropped it, so the remote vectoring and invalidation bill to the
// initiator: kIpiCost per remote CPU whose TLB actually held a matching
// entry, plus kIpiRemoteInvalidate per entry dropped. CPUs that never
// cached the translation cost nothing.
void Aegis::ShootdownRemote(uint32_t key, bool asid_flush) {
  const uint32_t ncpus = machine_.cpu_count();
  if (ncpus <= 1) {
    return;
  }
  const uint32_t self = machine_.current_cpu();
  Env* initiator = FindEnv(cur().current);
  for (uint32_t k = 0; k < ncpus; ++k) {
    if (k == self) {
      continue;
    }
    const uint32_t dropped = asid_flush
                                 ? priv_.TlbRemoteFlushAsid(k, static_cast<hw::Asid>(key))
                                 : priv_.TlbRemoteFlushPfn(k, key);
    if (dropped == 0) {
      continue;
    }
    machine_.Charge(kIpiCost + kIpiRemoteInvalidate * dropped);
    ++tlb_shootdowns_;
    if (initiator != nullptr) {
      ++initiator->counters.ipis_sent;
      ++initiator->counters.tlb_shootdowns;
    }
    Trace(xtrace::Event::kTlbShootdown, key, k, dropped, asid_flush ? 1u : 0u);
  }
}

void Aegis::FlushAsid(hw::Asid asid) {
  priv_.TlbFlushAsid(asid);
  stlb_.FlushAsid(asid);
  ShootdownRemote(asid, /*asid_flush=*/true);
}

void Aegis::FlushPageBindings(hw::PageId page) {
  machine_.Charge(Instr(20));  // Reverse-map sweep of cached bindings.
  machine_.tlb().FlushPfn(page);
  stlb_.FlushPfn(page);
  ShootdownRemote(page, /*asid_flush=*/false);
  // Packet-filter bindings are cached bindings too: a ring or pinned ASH
  // region spanning the reclaimed frame would keep the demux writing into
  // it at interrupt level after reallocation. Sever them here so every
  // frame release (ReleasePage) breaks them uniformly.
  const auto spans = [page](hw::PageId first, uint32_t count) {
    return page >= first && page < first + count;
  };
  for (dpf::FilterId id = 0; id < bindings_.size(); ++id) {
    FilterBinding& binding = bindings_[id];
    if (!binding.live) {
      continue;
    }
    if (binding.ring.live && spans(binding.ring.first_page, binding.ring.pages)) {
      machine_.Charge(Instr(10));
      binding.ring = RingState{};  // Delivery reverts to the legacy queue.
    }
    if (binding.region_pages > 0 && spans(binding.region_first_page, binding.region_pages)) {
      // The ASH runs against the whole pinned region; losing any frame of
      // it kills the binding.
      machine_.Charge(Instr(10));
      (void)ReleaseFilter(id);
    }
  }
  // The trace ring is a cached binding too: losing any frame of it severs
  // the whole ring, or the kernel would keep appending records into a
  // reclaimed (and possibly reallocated) frame.
  if (trace_ != nullptr && spans(trace_->first_page, trace_->pages)) {
    machine_.Charge(Instr(10));
    SeverTraceRing();
  }
  // In-flight disk DMA targeting the frame is a cached binding too: the
  // transfer would land in the frame after reallocation to a new owner.
  // Cancel it and fail the blocked transfer with an I/O error — the owner
  // retries (or repairs) like any other media fault.
  if (disk_ != nullptr) {
    const std::vector<uint64_t> cancelled =
        disk_->CancelIf([page](hw::PageId frame) { return frame == page; });
    for (uint64_t request : cancelled) {
      RetireDiskWaiter(request, Status::kErrIo);
    }
  }
}

// --- Revocation and the abort protocol (paper §3.4–3.5) ---

std::vector<hw::PageId> Aegis::SysReadRepossessed() {
  SyscallScope scope(*this, xtrace::Sys::kReadRepossessed);
  machine_.Charge(kSyscallEntry + Instr(6) + kSyscallExit);
  Env& env = CurrentEnv();
  std::vector<hw::PageId> taken = std::move(env.repossessed);
  env.repossessed.clear();
  return taken;
}

uint32_t Aegis::Repossess(Env& victim, uint32_t pages) {
  uint32_t taken = 0;
  for (hw::PageId p = 0; p < pages_.size() && taken < pages; ++p) {
    if (pages_[p].owner != victim.id) {
      continue;
    }
    ReleasePage(p);
    if (victim.repossessed.size() < Env::kMaxRepossessed) {
      victim.repossessed.push_back(p);
    } else {
      // The vector is bounded: the frame is reclaimed regardless, but a
      // libOS that never drains its vector loses the notification and the
      // overflow is counted where SysEnvStats can see it.
      ++victim.counters.repossess_overflow;
    }
    ++taken;
  }
  Trace(xtrace::Event::kRepossess, victim.id, taken);
  if (taken > 0) {
    // Forced reclamation wakes the victim: a repossessed ring page can
    // sever the very binding a blocked receiver is waiting on, and only
    // an awake libOS can drain its repossession vector and repair.
    WakeEnvInternal(victim);
  }
  return taken;
}

Status Aegis::RevokePages(EnvId victim_id, uint32_t pages) {
  Env* victim = FindEnv(victim_id);
  if (victim == nullptr || victim->state == EnvState::kExited) {
    return Status::kErrNotFound;
  }
  Trace(xtrace::Event::kRevoke, victim_id, pages);
  const uint32_t free_before = free_pages();
  if (victim->handlers.revoke) {
    // Visible revocation: the library OS chooses which pages to give up.
    // The handler runs with the victim's identity but must not block —
    // revocation can arrive at interrupt level on an arbitrary fiber.
    const EnvId saved = cur().current;
    cur().current = victim_id;
    victim->handlers.revoke(pages);
    cur().current = saved;
  }
  const uint32_t freed = free_pages() - free_before;
  if (freed < pages) {
    // Abort protocol: break the bindings by force and record them in the
    // repossession vector so the libOS can repair its abstractions.
    Repossess(*victim, pages - freed);
  }
  return Status::kOk;
}

}  // namespace xok::aegis
