#include "src/ultrix/ultrix.h"

#include <cstdio>
#include <cstdlib>

namespace xok::ultrix {

using hw::Instr;

Ultrix::Ultrix(hw::Machine& machine)
    : machine_(machine),
      priv_(machine.InstallKernel(this)),
      frame_used_(machine.mem().page_count(), false) {}

Ultrix::~Ultrix() = default;

void Ultrix::AttachNic(hw::Nic* nic, NetConfig config) {
  nic_ = nic;
  net_config_ = std::move(config);
}

Ultrix::Proc& Ultrix::Current() {
  Proc* proc = Find(current_);
  if (proc == nullptr) {
    std::fprintf(stderr, "ultrix: syscall outside any process\n");
    std::abort();
  }
  return *proc;
}

Ultrix::Proc* Ultrix::Find(Pid pid) {
  if (pid == kNoPid || pid > procs_.size()) {
    return nullptr;
  }
  return procs_[pid - 1].get();
}

Result<Pid> Ultrix::CreateProcess(std::function<void()> main) {
  if (!main) {
    return Status::kErrInvalidArgs;
  }
  const Pid pid = static_cast<Pid>(procs_.size() + 1);
  auto proc = std::make_unique<Proc>();
  proc->pid = pid;
  proc->asid = static_cast<hw::Asid>(pid);
  proc->fiber = std::make_unique<hw::Fiber>([this, main = std::move(main)]() {
    main();
    SysExit();
  });
  procs_.push_back(std::move(proc));
  runqueue_.push_back(pid);
  ++live_;
  return pid;
}

void Ultrix::SwitchToKernel() {
  Proc& proc = Current();
  proc.saved_trap_depth = priv_.SwapTrapDepth(0);
  hw::Fiber::Switch(*proc.fiber, kernel_fiber_);
}

void Ultrix::Run() {
  machine_.RunCpus({[this] {
    while (live_ > 0) {
      Pid next = kNoPid;
      while (!runqueue_.empty()) {
        const Pid candidate = runqueue_.front();
        runqueue_.pop_front();
        Proc* proc = Find(candidate);
        if (proc != nullptr && proc->state == ProcState::kRunnable) {
          next = candidate;
          break;
        }
      }
      if (next == kNoPid) {
        priv_.ClearSliceDeadline();
        machine_.WaitForInterrupt();
        // Interrupt handlers may have woken someone, or the wake was
        // spurious; loop around.
        continue;
      }
      Proc& proc = *Find(next);
      priv_.SetAsid(proc.asid);
      priv_.SetSliceDeadline(machine_.clock().now() + kQuantumCycles);
      current_ = next;
      priv_.SwapTrapDepth(proc.saved_trap_depth);
      hw::Fiber::Switch(kernel_fiber_, *proc.fiber);
      priv_.SwapTrapDepth(0);
      current_ = kNoPid;
    }
    priv_.ClearSliceDeadline();
  }});
}

// --- Basic syscalls ---

void Ultrix::SysNull() {
  ChargeSyscallEntry();
  ChargeSyscallExit();
}

Pid Ultrix::SysGetPid() {
  ChargeSyscallEntry();
  const Pid pid = current_;
  ChargeSyscallExit();
  return pid;
}

uint64_t Ultrix::SysGetTime() {
  ChargeSyscallEntry();
  const uint64_t now = machine_.clock().now();
  ChargeSyscallExit();
  return now;
}

void Ultrix::SysYield() {
  ChargeSyscallEntry();
  machine_.Charge(kContextSwitch);
  runqueue_.push_back(current_);
  SwitchToKernel();
  ChargeSyscallExit();
}

void Ultrix::SysExit() {
  ChargeSyscallEntry();
  Proc& proc = Current();
  proc.state = ProcState::kExited;
  --live_;
  priv_.TlbFlushAsid(proc.asid);
  for (const auto& [vpn, pte] : proc.page_table) {
    if (pte.present) {
      frame_used_[pte.frame] = false;
    }
  }
  SwitchToKernel();
  std::fprintf(stderr, "ultrix: exited process resumed\n");
  std::abort();
}

void Ultrix::SysSleep(uint64_t cycles) {
  ChargeSyscallEntry();
  priv_.ScheduleEvent(cycles, hw::InterruptSource::kAlarm, current_);
  Sleep();
  ChargeSyscallExit();
}

void Ultrix::Sleep() {
  machine_.Charge(kSleepPath + kContextSwitch);
  Current().state = ProcState::kSleeping;
  priv_.ClearSliceDeadline();
  SwitchToKernel();
}

void Ultrix::Wakeup(Pid pid) {
  machine_.Charge(kWakeupPath);
  Proc* proc = Find(pid);
  if (proc != nullptr && proc->state == ProcState::kSleeping) {
    proc->state = ProcState::kRunnable;
    runqueue_.push_back(pid);
  }
}

// --- Memory ---

hw::PageId Ultrix::AllocFrame() {
  for (uint32_t i = 0; i < frame_used_.size(); ++i) {
    const uint32_t frame = (next_frame_hint_ + i) % frame_used_.size();
    if (!frame_used_[frame]) {
      frame_used_[frame] = true;
      next_frame_hint_ = frame + 1;
      return frame;
    }
  }
  std::fprintf(stderr, "ultrix: out of physical memory\n");
  std::abort();
}

void Ultrix::SysSignal(SignalHandler handler) {
  ChargeSyscallEntry();
  Current().signal_handler = std::move(handler);
  ChargeSyscallExit();
}

Status Ultrix::SysMprotect(hw::Vaddr va, uint32_t pages, Prot prot) {
  ChargeSyscallEntry();
  Proc& proc = Current();
  for (uint32_t i = 0; i < pages; ++i) {
    const hw::Vpn vpn = hw::VpnOf(va + i * hw::kPageBytes);
    machine_.Charge(kPtePage);
    auto it = proc.page_table.find(vpn);
    if (it == proc.page_table.end() || !it->second.present) {
      ChargeSyscallExit();
      return Status::kErrNotFound;
    }
    it->second.prot = prot;
    priv_.TlbInvalidate(vpn, proc.asid);
  }
  ChargeSyscallExit();
  return Status::kOk;
}

Result<bool> Ultrix::SysMincoreDirty(hw::Vaddr va) {
  ChargeSyscallEntry();
  machine_.Charge(kPtWalk);
  Proc& proc = Current();
  auto it = proc.page_table.find(hw::VpnOf(va));
  if (it == proc.page_table.end() || !it->second.present) {
    ChargeSyscallExit();
    return Status::kErrNotFound;
  }
  const bool dirty = it->second.dirty;
  ChargeSyscallExit();
  return dirty;
}

bool Ultrix::DeliverSignal(hw::Vaddr va, bool is_write) {
  Proc& proc = Current();
  if (!proc.signal_handler) {
    return false;
  }
  machine_.Charge(kSignalDeliver);
  const bool verdict = proc.signal_handler(va, is_write);
  machine_.Charge(kSigreturn);
  return verdict;
}

hw::TrapOutcome Ultrix::HandleVmFault(const hw::TrapFrame& frame) {
  machine_.Charge(kVmFaultPath);
  Proc& proc = Current();
  const hw::Vpn vpn = hw::VpnOf(frame.bad_vaddr);
  const bool is_store = frame.store || frame.type == hw::ExceptionType::kTlbModify;
  KernelPte& pte = proc.page_table[vpn];

  if (!pte.present) {
    // Demand-zero fill (the kernel policy every process gets).
    pte.present = true;
    pte.prot = kProtWrite;
    pte.dirty = false;
    pte.frame = AllocFrame();
    machine_.Charge(hw::kMemWordCopy * (hw::kPageBytes / 4));  // Zero fill.
    auto bytes = machine_.mem().PageSpan(pte.frame);
    std::fill(bytes.begin(), bytes.end(), uint8_t{0});
  }

  const bool denied = pte.prot == kProtNone || (is_store && pte.prot != kProtWrite);
  if (denied) {
    if (DeliverSignal(frame.bad_vaddr, is_store)) {
      return hw::TrapOutcome::kRetry;  // Handler repaired (e.g. mprotect).
    }
    return hw::TrapOutcome::kSkip;
  }
  if (is_store) {
    pte.dirty = true;
  }
  hw::TlbEntry entry;
  entry.vpn = vpn;
  entry.asid = proc.asid;
  entry.pfn = pte.frame;
  entry.valid = true;
  entry.writable = pte.prot == kProtWrite && pte.dirty;
  priv_.TlbWriteRandom(entry);
  return hw::TrapOutcome::kRetry;
}

hw::TrapOutcome Ultrix::OnException(hw::TrapFrame& frame) {
  machine_.Charge(kTrapEntry);
  hw::TrapOutcome outcome = hw::TrapOutcome::kSkip;
  switch (frame.type) {
    case hw::ExceptionType::kTlbMissLoad:
    case hw::ExceptionType::kTlbMissStore:
    case hw::ExceptionType::kTlbModify:
      outcome = HandleVmFault(frame);
      break;
    case hw::ExceptionType::kAddressError:
    case hw::ExceptionType::kOverflow:
    case hw::ExceptionType::kCoprocUnusable:
    case hw::ExceptionType::kBusError:
      // Applications see these only as signals.
      outcome = DeliverSignal(frame.bad_vaddr, frame.store) ? hw::TrapOutcome::kRetry
                                                            : hw::TrapOutcome::kSkip;
      break;
  }
  machine_.Charge(kTrapExit);
  return outcome;
}

void Ultrix::OnInterrupt(hw::InterruptSource source, uint64_t payload) {
  (void)payload;
  switch (source) {
    case hw::InterruptSource::kTimer: {
      if (current_ == kNoPid) {
        return;
      }
      machine_.Charge(kContextSwitch);
      runqueue_.push_back(current_);
      SwitchToKernel();
      break;
    }
    case hw::InterruptSource::kNicRx:
      HandleRx();
      break;
    case hw::InterruptSource::kAlarm:
      Wakeup(static_cast<Pid>(payload));
      break;
    // No disk driver, fault plan, power sensor, second CPU, or pressure
    // engine in the baseline kernel: these sources never fire here.
    case hw::InterruptSource::kDiskDone:
    case hw::InterruptSource::kFault:
    case hw::InterruptSource::kPowerFail:
    case hw::InterruptSource::kIpi:
    case hw::InterruptSource::kPressure:
      break;
  }
}

// --- Pipes ---

Result<std::pair<int, int>> Ultrix::SysPipe() {
  ChargeSyscallEntry();
  auto buf = std::make_shared<PipeBuf>();
  buf->readers = 1;
  buf->writers = 1;
  const int rfd = next_fd_++;
  const int wfd = next_fd_++;
  fds_[rfd] = OpenFile{OpenFile::Kind::kPipeRead, buf, nullptr};
  fds_[wfd] = OpenFile{OpenFile::Kind::kPipeWrite, buf, nullptr};
  ChargeSyscallExit();
  return std::make_pair(rfd, wfd);
}

Status Ultrix::SysWrite(int fd, std::span<const uint8_t> data) {
  ChargeSyscallEntry();
  machine_.Charge(kFdLayer);
  auto it = fds_.find(fd);
  if (it == fds_.end() || it->second.kind != OpenFile::Kind::kPipeWrite) {
    ChargeSyscallExit();
    return Status::kErrInvalidArgs;
  }
  std::shared_ptr<PipeBuf> pipe = it->second.pipe;
  size_t written = 0;
  while (written < data.size()) {
    if (pipe->data.size() >= PipeBuf::kCapacity) {
      pipe->writer_waiting = current_;
      Sleep();
      continue;
    }
    const size_t chunk =
        std::min(data.size() - written, PipeBuf::kCapacity - pipe->data.size());
    // Copy in to the kernel buffer (first of the pipe's two copies).
    machine_.Charge(hw::kMemWordCopy * ((chunk + 3) / 4));
    for (size_t i = 0; i < chunk; ++i) {
      pipe->data.push_back(data[written + i]);
    }
    written += chunk;
    if (pipe->reader_waiting != kNoPid) {
      const Pid reader = pipe->reader_waiting;
      pipe->reader_waiting = kNoPid;
      Wakeup(reader);
    }
  }
  ChargeSyscallExit();
  return Status::kOk;
}

Result<uint32_t> Ultrix::SysRead(int fd, std::span<uint8_t> buf) {
  ChargeSyscallEntry();
  machine_.Charge(kFdLayer);
  auto it = fds_.find(fd);
  if (it == fds_.end() || it->second.kind != OpenFile::Kind::kPipeRead) {
    ChargeSyscallExit();
    return Status::kErrInvalidArgs;
  }
  std::shared_ptr<PipeBuf> pipe = it->second.pipe;
  while (pipe->data.empty()) {
    if (pipe->writers == 0) {
      ChargeSyscallExit();
      return 0u;  // EOF.
    }
    pipe->reader_waiting = current_;
    Sleep();
  }
  const size_t chunk = std::min(buf.size(), pipe->data.size());
  machine_.Charge(hw::kMemWordCopy * ((chunk + 3) / 4));  // Copy out.
  for (size_t i = 0; i < chunk; ++i) {
    buf[i] = pipe->data.front();
    pipe->data.pop_front();
  }
  if (pipe->writer_waiting != kNoPid) {
    const Pid writer = pipe->writer_waiting;
    pipe->writer_waiting = kNoPid;
    Wakeup(writer);
  }
  ChargeSyscallExit();
  return static_cast<uint32_t>(chunk);
}

Status Ultrix::SysClose(int fd) {
  ChargeSyscallEntry();
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    ChargeSyscallExit();
    return Status::kErrInvalidArgs;
  }
  if (it->second.kind == OpenFile::Kind::kPipeWrite && it->second.pipe != nullptr) {
    if (--it->second.pipe->writers == 0 && it->second.pipe->reader_waiting != kNoPid) {
      const Pid reader = it->second.pipe->reader_waiting;
      it->second.pipe->reader_waiting = kNoPid;
      Wakeup(reader);  // Readers see EOF.
    }
  }
  if (it->second.kind == OpenFile::Kind::kPipeRead && it->second.pipe != nullptr) {
    --it->second.pipe->readers;
  }
  fds_.erase(it);
  ChargeSyscallExit();
  return Status::kOk;
}

// --- UDP sockets ---

Result<int> Ultrix::SysSocketUdp() {
  ChargeSyscallEntry();
  auto socket = std::make_shared<Socket>();
  const int fd = next_fd_++;
  fds_[fd] = OpenFile{OpenFile::Kind::kSocket, nullptr, socket};
  ChargeSyscallExit();
  return fd;
}

Status Ultrix::SysBindPort(int fd, uint16_t port) {
  ChargeSyscallEntry();
  machine_.Charge(kSocketLayer);
  auto it = fds_.find(fd);
  if (it == fds_.end() || it->second.kind != OpenFile::Kind::kSocket) {
    ChargeSyscallExit();
    return Status::kErrInvalidArgs;
  }
  for (const auto& socket : sockets_) {
    if (socket->port == port) {
      ChargeSyscallExit();
      return Status::kErrAlreadyExists;
    }
  }
  it->second.socket->port = port;
  sockets_.push_back(it->second.socket);
  ChargeSyscallExit();
  return Status::kOk;
}

Status Ultrix::SysSendTo(int fd, uint32_t dst_ip, uint16_t dst_port,
                         std::span<const uint8_t> payload) {
  ChargeSyscallEntry();
  machine_.Charge(kSocketLayer + kIpPath);
  auto it = fds_.find(fd);
  if (it == fds_.end() || it->second.kind != OpenFile::Kind::kSocket) {
    ChargeSyscallExit();
    return Status::kErrInvalidArgs;
  }
  if (nic_ == nullptr) {
    ChargeSyscallExit();
    return Status::kErrUnsupported;
  }
  // Copy from user space into an mbuf, checksum, transmit.
  machine_.Charge(hw::kMemWordCopy * ((payload.size() + 3) / 4));
  machine_.Charge(Instr((payload.size() + net::kUdpHeaderBytes + 1) / 2));  // UDP cksum.
  machine_.Charge(Instr(net::kIpHeaderBytes / 2));                          // IP cksum.
  const uint64_t dst_mac =
      net_config_.resolve ? net_config_.resolve(dst_ip) : hw::kBroadcastMac;
  std::vector<uint8_t> frame = net::BuildUdpFrame(
      dst_mac, net_config_.mac, net_config_.ip, dst_ip, it->second.socket->port, dst_port,
      payload);
  const bool ok = nic_->Transmit(frame);
  ChargeSyscallExit();
  return ok ? Status::kOk : Status::kErrInvalidArgs;
}

Result<Datagram> Ultrix::SysRecvFrom(int fd) {
  ChargeSyscallEntry();
  machine_.Charge(kSocketLayer);
  auto it = fds_.find(fd);
  if (it == fds_.end() || it->second.kind != OpenFile::Kind::kSocket) {
    ChargeSyscallExit();
    return Status::kErrInvalidArgs;
  }
  std::shared_ptr<Socket> socket = it->second.socket;
  while (socket->queue.empty()) {
    socket->waiting = current_;
    Sleep();
  }
  Datagram dgram = std::move(socket->queue.front());
  socket->queue.pop_front();
  // Copy out to user space.
  machine_.Charge(hw::kMemWordCopy * ((dgram.payload.size() + 3) / 4));
  ChargeSyscallExit();
  return dgram;
}

void Ultrix::HandleRx() {
  if (nic_ == nullptr) {
    return;
  }
  while (true) {
    auto frame = nic_->ReceiveNext();
    if (!frame.has_value()) {
      return;
    }
    // In-kernel protocol processing: validate, checksum, demultiplex by
    // well-known structure (the kernel understands exactly one stack).
    machine_.Charge(kIpPath);
    machine_.Charge(Instr((frame->size() + 1) / 2));  // Checksum pass.
    net::UdpView view;
    if (!net::ParseUdpFrame(*frame, &view)) {
      continue;
    }
    for (const auto& socket : sockets_) {
      if (socket->port != view.dst_port) {
        continue;
      }
      // Copy into the socket buffer (the kernel-buffer copy applications
      // cannot avoid under the fixed abstraction).
      machine_.Charge(hw::kMemWordCopy * ((view.payload.size() + 3) / 4));
      Datagram dgram;
      dgram.src_ip = view.src_ip;
      dgram.src_port = view.src_port;
      dgram.payload.assign(view.payload.begin(), view.payload.end());
      socket->queue.push_back(std::move(dgram));
      if (socket->waiting != kNoPid) {
        const Pid waiter = socket->waiting;
        socket->waiting = kNoPid;
        Wakeup(waiter);
      }
      break;
    }
  }
}

}  // namespace xok::ultrix
