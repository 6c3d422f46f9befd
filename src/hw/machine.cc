#include "src/hw/machine.h"

#include <cstdio>
#include <cstdlib>

#include "src/hw/nic.h"
#include "src/hw/world.h"

namespace xok::hw {

// --- PrivPort ---

void PrivPort::TlbWriteRandom(const TlbEntry& entry) {
  machine_.Charge(kTlbWrite);
  machine_.active_->tlb_.WriteRandom(entry);
}

void PrivPort::TlbInvalidate(Vpn vpn, Asid asid) {
  machine_.Charge(kTlbWrite);
  machine_.active_->tlb_.Invalidate(vpn, asid);
}

void PrivPort::TlbFlushAsid(Asid asid) {
  machine_.Charge(kTlbWrite * 4);  // Indexed sweep.
  machine_.active_->tlb_.FlushAsid(asid);
}

uint32_t PrivPort::TlbRemoteFlushPfn(uint32_t cpu, PageId pfn) {
  return machine_.cpus_[cpu]->tlb_.FlushPfn(pfn);
}

uint32_t PrivPort::TlbRemoteFlushAsid(uint32_t cpu, Asid asid) {
  return machine_.cpus_[cpu]->tlb_.FlushAsid(asid);
}

Asid PrivPort::asid() const { return machine_.active_->asid_; }

bool PrivPort::slice_armed() const { return machine_.active_->slice_armed_; }

void PrivPort::SetCoprocEnabled(bool enabled) {
  machine_.Charge(Instr(1));
  machine_.active_->coproc_enabled_ = enabled;
}

void PrivPort::SetInterruptsEnabled(bool enabled) {
  machine_.Charge(Instr(1));
  machine_.active_->interrupts_enabled_ = enabled;
}

bool PrivPort::interrupts_enabled() const {
  return machine_.active_->interrupts_enabled_;
}

void PrivPort::ScheduleEvent(uint64_t delay, InterruptSource source, uint64_t payload) {
  Cpu& cpu = *machine_.active_;
  cpu.PushEvent(cpu.clock_.now() + delay, source, payload, machine_.world_index());
}

void PrivPort::ScheduleEventOnCpu(uint32_t cpu, uint64_t delay, InterruptSource source,
                                  uint64_t payload) {
  if (cpu >= machine_.cpu_count()) {
    std::fprintf(stderr, "xok: machine %s event for nonexistent cpu %u\n",
                 machine_.config_.name, cpu);
    std::abort();
  }
  const uint64_t due = machine_.active_->clock_.now() + delay;
  machine_.cpus_[cpu]->PushEvent(due, source, payload, machine_.world_index());
}

void PrivPort::SendIpi(uint32_t cpu, uint64_t payload) {
  if (cpu >= machine_.cpu_count()) {
    std::fprintf(stderr, "xok: machine %s IPI to nonexistent cpu %u\n", machine_.config_.name,
                 cpu);
    std::abort();
  }
  machine_.Charge(kIpiSend);
  const uint64_t due = machine_.active_->clock_.now() + kIpiLatency;
  machine_.cpus_[cpu]->PushEvent(due, InterruptSource::kIpi, payload, machine_.world_index());
}

uint32_t PrivPort::cpu_count() const { return machine_.cpu_count(); }

// --- Cpu ---

Cpu::Cpu(Machine& machine, uint32_t index) : machine_(machine), index_(index) {}

void Cpu::Attend() {
  if (clock_.now() >= *yield_at_) {
    machine_.world_->YieldCurrent();
  }
  // While this CPU was yielded, other CPUs may have posted to it: PushEvent
  // lowered attention_ for each.
  if (interrupts_enabled_ && clock_.now() >= attention_) {
    DeliverDue();
  }
}

void Cpu::WaitForInterrupt() {
  if (interrupts_enabled_ && DeliverDue()) {
    return;
  }
  if (machine_.world_ == nullptr) {
    std::fprintf(stderr,
                 "xok: machine %s: WaitForInterrupt outside any World "
                 "(run the kernel loop under RunCpus)\n",
                 machine_.config_.name);
    std::abort();
  }
  // Resumed either at a due event (the world advanced this clock to it) or
  // spuriously, so the caller's loop can re-check its run condition.
  machine_.world_->ParkCurrent();
  if (interrupts_enabled_) {
    DeliverDue();
  }
}

void Cpu::PushEvent(uint64_t due_cycle, InterruptSource source, uint64_t payload,
                    uint32_t origin) {
  // The origin rides in the tie-breaker's top bits: same-cycle events order
  // by origin first, and by push order only within one origin, whose pushes
  // follow that machine's own deterministic execution.
  const uint64_t seq = (static_cast<uint64_t>(origin) << 48) | event_seq_++;
  events_.push(PendingEvent{due_cycle, source, payload, seq});
  attention_ = std::min(attention_, due_cycle);
  if (machine_.world_ != nullptr) {
    machine_.world_->NoteEventPosted(this, due_cycle);
  }
}

bool Cpu::DeliverDue() {
  bool delivered = false;
  const uint64_t now = clock_.now();
  if (slice_armed_ && now >= slice_deadline_) {
    slice_armed_ = false;
    slice_deadline_ = 0;
    DeliverOne(PendingEvent{now, InterruptSource::kTimer, 0, 0});
    delivered = true;
  }
  PendingEvent event;
  while (PopDue(event)) {
    if (event.source == InterruptSource::kNicRx && machine_.nic_ != nullptr) {
      machine_.nic_->LandArrived(clock_.now());  // The frame's DMA, before its interrupt.
    }
    DeliverOne(event);
    delivered = true;
  }
  return delivered;
}

bool Cpu::PopDue(PendingEvent& event) {
  const bool due = !events_.empty() && events_.top().due_cycle <= clock_.now();
  if (due) {
    event = events_.top();
    events_.pop();
  }
  // Before the handler runs, so that its own charges leave the charge path
  // only if something else is due.
  attention_ = NextDueCycle();
  return due;
}

void Cpu::DeliverOne(const PendingEvent& event) {
  if (machine_.kernel_ == nullptr) {
    return;  // Events before kernel installation are dropped (power-on noise).
  }
  Charge(kExceptionRaise);
  ++trap_depth_;
  machine_.kernel_->OnInterrupt(event.source, event.payload);
  // The handler may have suspended this fiber mid-trap and had it resumed
  // on a different CPU (SMP migration); the unwind must release the trap
  // depth of whichever CPU is executing it now — the kernel moved the
  // suspended context's depth there when it resumed the fiber. The
  // epilogue charge happens while the depth is still held: if it could
  // deliver, each queued event would deliver the next from its own
  // epilogue and a long backlog (e.g. accumulated across a masked
  // teardown) would nest one stack frame per event. Holding the depth
  // leaves the rest of the backlog to DeliverDue's loop — same cycles,
  // same order, flat stack.
  machine_.active_->Charge(kExceptionReturn);
  --machine_.active_->trap_depth_;
}

// --- Machine ---

Machine::Machine(const Config& config, World* world)
    : config_(config), mem_(config.phys_pages), priv_(*this), world_(world) {
  const uint32_t cpus = std::max(1u, config.cpus);
  if (cpus > 64) {
    std::fprintf(stderr, "xok: machine %s: cpus=%u exceeds the 64-CPU limit\n", config_.name,
                 cpus);
    std::abort();
  }
  // Every CPU owns a local clock; the world orders execution by these, so
  // cycles burned on different CPUs — and different machines — overlap in
  // simulated time.
  cpus_.reserve(cpus);
  for (uint32_t i = 0; i < cpus; ++i) {
    cpus_.push_back(std::make_unique<Cpu>(*this, i));
  }
  active_ = cpus_[0].get();
  if (world_ != nullptr) {
    world_->Attach(this);
  }
}

Machine::~Machine() = default;

PrivPort& Machine::InstallKernel(TrapSink* kernel) {
  if (kernel_ != nullptr) {
    std::fprintf(stderr, "xok: machine %s already has a kernel\n", config_.name);
    std::abort();
  }
  kernel_ = kernel;
  return priv_;
}

uint64_t Machine::MaxCpuCycle() const {
  uint64_t max = 0;
  for (const std::unique_ptr<Cpu>& cpu : cpus_) {
    max = std::max(max, cpu->clock().now());
  }
  return max;
}

Result<Paddr> Machine::Translate(Vaddr va, bool store) {
  const Vpn vpn = VpnOf(va);
  for (int attempt = 0; attempt < 8; ++attempt) {
    const TlbEntry* entry = active_->tlb_.Lookup(vpn, active_->asid_);
    if (entry == nullptr) {
      const ExceptionType type =
          store ? ExceptionType::kTlbMissStore : ExceptionType::kTlbMissLoad;
      if (RaiseException(type, va, store) == TrapOutcome::kSkip) {
        return Status::kErrAccessDenied;
      }
      continue;
    }
    if (store && !entry->writable) {
      if (RaiseException(ExceptionType::kTlbModify, va, store) == TrapOutcome::kSkip) {
        return Status::kErrAccessDenied;
      }
      continue;
    }
    const Paddr pa = (static_cast<Paddr>(entry->pfn) << kPageShift) | PageOffset(va);
    if (!mem_.ValidPaddr(pa)) {
      RaiseException(ExceptionType::kBusError, va, store);
      return Status::kErrOutOfRange;
    }
    return pa;
  }
  // The kernel kept claiming it fixed the fault but the TLB still misses:
  // a refill livelock. Surface it rather than spinning.
  return Status::kErrBadState;
}

TrapOutcome Machine::RaiseException(ExceptionType type, Vaddr bad_vaddr, bool store) {
  if (kernel_ == nullptr) {
    std::fprintf(stderr, "xok: exception with no kernel installed\n");
    std::abort();
  }
  Charge(kExceptionRaise);
  TrapFrame frame;
  frame.type = type;
  frame.bad_vaddr = bad_vaddr;
  frame.store = store;
  ++active_->trap_depth_;
  const TrapOutcome outcome = kernel_->OnException(frame);
  // As in Cpu::DeliverOne: unwind on the executing CPU, which may differ
  // from the raising CPU if the handler suspended and migrated this fiber.
  --active_->trap_depth_;
  Charge(kExceptionReturn);
  return outcome;
}

Result<uint32_t> Machine::LoadWord(Vaddr va) {
  if ((va & 3u) != 0) {
    RaiseException(ExceptionType::kAddressError, va, /*store=*/false);
    return Status::kErrInvalidArgs;
  }
  Result<Paddr> pa = Translate(va, /*store=*/false);
  if (!pa.ok()) {
    return pa.status();
  }
  Charge(kMemWordAccess);
  return mem_.ReadWord(*pa);
}

Status Machine::StoreWord(Vaddr va, uint32_t value) {
  if ((va & 3u) != 0) {
    RaiseException(ExceptionType::kAddressError, va, /*store=*/true);
    return Status::kErrInvalidArgs;
  }
  Result<Paddr> pa = Translate(va, /*store=*/true);
  if (!pa.ok()) {
    return pa.status();
  }
  Charge(kMemWordAccess);
  mem_.WriteWord(*pa, value);
  return Status::kOk;
}

Result<int32_t> Machine::AddOverflow(int32_t a, int32_t b) {
  Charge(Instr(1));
  int32_t sum = 0;
  if (__builtin_add_overflow(a, b, &sum)) {
    RaiseException(ExceptionType::kOverflow, 0, /*store=*/false);
    return Status::kErrOutOfRange;
  }
  return sum;
}

Status Machine::CoprocOp() {
  Charge(Instr(1));
  if (active_->coproc_enabled_) {
    return Status::kOk;
  }
  RaiseException(ExceptionType::kCoprocUnusable, 0, /*store=*/false);
  // Re-check: the handler may have enabled the coprocessor and asked for a
  // retry; otherwise the operation is abandoned.
  return active_->coproc_enabled_ ? Status::kOk : Status::kErrBadState;
}

void Machine::WaitForInterrupt() { active_->WaitForInterrupt(); }

void Machine::PushEvent(uint64_t due_cycle, InterruptSource source, uint64_t payload,
                        uint32_t origin) {
  cpus_[0]->PushEvent(due_cycle, source, payload, origin);
}

// --- RunCpus ---

void Machine::RunCpus(std::vector<std::function<void()>> bodies) {
  if (world_ == nullptr) {
    // Standalone: run as the only machine of a private World. The World
    // returns early only if every CPU parks with nothing left to deliver.
    World world;
    world_ = &world;
    world.Attach(this);
    bool finished = false;
    world.Run({[&] {
      RunCpus(std::move(bodies));
      finished = true;
    }});
    world_ = nullptr;
    for (const std::unique_ptr<Cpu>& cpu : cpus_) {
      cpu->yield_at_ = &Cpu::kNoYield;
    }
    if (!finished) {
      std::fprintf(stderr, "xok: machine %s: all CPUs idle with no pending events (hang)\n",
                   config_.name);
      std::abort();
    }
    return;
  }
  if (bodies.size() != cpus_.size()) {
    std::fprintf(stderr, "xok: machine %s RunCpus wants %zu bodies for %zu CPUs\n", config_.name,
                 bodies.size(), cpus_.size());
    std::abort();
  }
  if (smp_running_) {
    std::fprintf(stderr, "xok: machine %s RunCpus is not reentrant\n", config_.name);
    std::abort();
  }
  smp_running_ = true;
  world_->RunCpus(this, std::move(bodies));
  smp_running_ = false;
}

}  // namespace xok::hw
