// The simulated machine: one or more CPUs (cycle clock, exception raising,
// interrupt delivery, privileged-operation port), physical memory, and the
// hardware TLBs. Devices (NIC, framebuffer, disk) attach to a machine.
//
// Execution model: application and kernel code are ordinary C++ running on
// fibers. Simulated time advances only through Charge(); asynchronous
// interrupts (timer, NIC, disk, IPI) are delivered at charge boundaries or
// when a CPU parks in WaitForInterrupt(). Synchronous exceptions (TLB miss,
// protection, unaligned, overflow, coprocessor) are raised by the memory and
// ALU access methods and vector immediately to the installed kernel.
//
// The charge path is inline: it adds the cycles and compares the clock
// with the lower of two thresholds. One is the CPU's attention cycle, a
// lower bound on its next due cycle (an event or the slice deadline); the
// other is the World's yield threshold, which the CPU reads through a
// pointer set when its machine joins or leaves a World. Only at or past
// one of them, and outside any trap, does the CPU leave the inline path to
// yield or to deliver what is due. Every way the next due cycle can drop
// lowers the attention cycle with it (PushEvent, SetSliceDeadline), and a
// delivery pass or ClearSliceDeadline sets it exactly, so a charge that
// stays inline is one at which nothing could have been delivered.
//
// SMP model: Config::cpus > 1 gives the machine several processors that
// share physical memory and devices but each own a TLB, ASID, slice timer,
// interrupt state, event queue, and — crucially — a local cycle clock.
// RunCpus runs one kernel loop per CPU, each as its own World context.
//
// Scheduling: there is one interleaver, hw::World, and each of its contexts
// is one CPU. A machine's own CPUs run in strict lowest-local-clock order:
// the running CPU yields once its clock passes another ready CPU's or
// reaches a parked CPU's next due event; CPUs tied on clock go to the one
// that ran last, then by CPU index. Across machines the World picks only
// among the current machine's CPUs while that machine stays within the
// wire's lookahead of the others: no frame lands on another machine sooner
// than the charges on its way allow after its sender's clock (world.h).
// Same-cycle events order
// by origin machine (Cpu::PushEvent), so a machine's results do not depend
// on how far its neighbours ran ahead. The machine body runs as CPU 0. A
// machine constructed without a World runs RunCpus as the only machine of
// a private one-machine World, so every kernel loop idles the same way:
// parked on a World, whose scheduler alone moves an idle clock forward.
#ifndef XOK_SRC_HW_MACHINE_H_
#define XOK_SRC_HW_MACHINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "src/base/result.h"
#include "src/hw/clock.h"
#include "src/hw/cost.h"
#include "src/hw/event.h"
#include "src/hw/phys_mem.h"
#include "src/hw/tlb.h"
#include "src/hw/trap.h"

namespace xok::hw {

class Machine;
class Nic;
class World;

// Handed to the installed kernel and to nothing else: all operations a real
// CPU would reserve for supervisor mode. Operations act on the CPU that is
// currently executing.
class PrivPort {
 public:
  explicit PrivPort(Machine& machine) : machine_(machine) {}

  PrivPort(const PrivPort&) = delete;
  PrivPort& operator=(const PrivPort&) = delete;

  // TLB management (current CPU's TLB). Each call charges its hardware cost.
  void TlbWriteRandom(const TlbEntry& entry);
  void TlbInvalidate(Vpn vpn, Asid asid);
  void TlbFlushAsid(Asid asid);

  // Remote TLB invalidation, the hardware half of a shootdown: drops the
  // matching entries in another CPU's TLB and returns how many were live.
  // Charges nothing — the kernel models the IPI + handler cost itself
  // (core/costs.h) because the protocol, not the wire, dominates.
  uint32_t TlbRemoteFlushPfn(uint32_t cpu, PageId pfn);
  uint32_t TlbRemoteFlushAsid(uint32_t cpu, Asid asid);

  // Addressing context.
  void SetAsid(Asid asid);
  Asid asid() const;

  // Slice timer: raises InterruptSource::kTimer at the next charge boundary
  // once the clock has reached the deadline. A deadline at or before the
  // current cycle (including cycle 0) fires on the very next Charge.
  void SetSliceDeadline(uint64_t absolute_cycle);
  // Disarms the slice timer.
  void ClearSliceDeadline();
  bool slice_armed() const;

  // Coprocessor (FPU) enable bit; when clear, CoprocOp() raises
  // kCoprocUnusable.
  void SetCoprocEnabled(bool enabled);

  // Interrupt enable. Interrupts queue while disabled. The machine disables
  // interrupts automatically for the duration of OnException/OnInterrupt.
  void SetInterruptsEnabled(bool enabled);
  bool interrupts_enabled() const;

  // Schedules a device event `delay` cycles from now on the current CPU.
  void ScheduleEvent(uint64_t delay, InterruptSource source, uint64_t payload);

  // Schedules a device event on a specific CPU (due `delay` cycles past the
  // *caller's* clock). Models machine-wide interrupt rails — the power-fail
  // sensor wired to every CPU — rather than the IPI mailbox; charges
  // nothing.
  void ScheduleEventOnCpu(uint32_t cpu, uint64_t delay, InterruptSource source,
                          uint64_t payload);

  // Posts InterruptSource::kIpi to `cpu` with a kernel-defined payload,
  // charging the mailbox write. The target observes it kIpiLatency after
  // the sender's current cycle, at its next charge boundary.
  void SendIpi(uint32_t cpu, uint64_t payload);

  // CPU topology, as a real kernel would read from PRId/config registers.
  uint32_t cpu_count() const;

  // Swaps the trap-nesting depth, returning the old value. Kernels that
  // switch execution contexts from inside a trap handler (e.g. ending a
  // time slice) must save the suspended context's depth and restore it when
  // resuming that context, so interrupt masking follows the context rather
  // than the physical call stack.
  int SwapTrapDepth(int depth);

 private:
  Machine& machine_;
};

// One simulated processor: the state a context switch or an interrupt can
// touch that is private to a CPU. CPUs share the machine's physical memory
// and devices; each owns its TLB, ASID, slice timer, interrupt-enable and
// trap state, pending-event queue, and a local cycle clock.
class Cpu {
 public:
  Cpu(Machine& machine, uint32_t index);

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  uint32_t index() const { return index_; }
  CycleClock& clock() { return clock_; }
  const CycleClock& clock() const { return clock_; }
  Tlb& tlb() { return tlb_; }

 private:
  friend class Machine;
  friend class PrivPort;
  friend class World;

  // What yield_at_ points at outside any World: never.
  static constexpr uint64_t kNoYield = ~0ULL;

  // Interrupts are implicitly masked while handling a trap, and a trap
  // handler does not yield.
  void Charge(uint64_t cycles) {
    clock_.Advance(cycles);
    if (clock_.now() >= std::min(attention_, *yield_at_) && trap_depth_ == 0) [[unlikely]] {
      Attend();
    }
  }
  // The charge path's way out: yields to the World if its threshold is
  // reached, then delivers whatever is due.
  void Attend();
  void WaitForInterrupt();
  // Delivers every due interrupt and sets attention_ to the next due cycle.
  bool DeliverDue();
  // Pops the earliest queued event into `event` if it is due, and sets
  // attention_ to the next due cycle either way. Out of line because
  // DeliverDue nests once per due event (DeliverOne's raise charge can
  // deliver the next), so its frame bounds how long a backlog fits on a
  // fiber stack: inlined, the queue operations grow it from ~0.2 KB to
  // ~4 KB in an ASan build.
  [[gnu::noinline]] bool PopDue(PendingEvent& event);
  void DeliverOne(const PendingEvent& event);
  // Queues an event. `origin` is the world index of the machine whose
  // execution caused it: this machine's own for local devices, timers and
  // IPIs, the sender's for a wire frame. Events due on the same cycle
  // deliver in origin order, then in push order, so same-cycle arrivals
  // from different machines keep one order whatever host order pushed
  // them.
  void PushEvent(uint64_t due_cycle, InterruptSource source, uint64_t payload,
                 uint32_t origin);

  // Earliest cycle at which this CPU has something to do; ~0 if none.
  uint64_t NextDueCycle() const {
    uint64_t next = ~0ULL;
    if (!events_.empty()) {
      next = events_.top().due_cycle;
    }
    if (slice_armed_ && slice_deadline_ < next) {
      next = slice_deadline_;
    }
    return next;
  }

  Machine& machine_;
  uint32_t index_;
  CycleClock clock_;
  Tlb tlb_;
  Asid asid_ = 0;
  uint64_t slice_deadline_ = 0;
  bool slice_armed_ = false;
  bool coproc_enabled_ = false;
  bool interrupts_enabled_ = true;
  int trap_depth_ = 0;
  // At most NextDueCycle(): below it, a charge has nothing to deliver.
  uint64_t attention_ = ~0ULL;
  // The World's yield threshold while the machine is in one.
  const uint64_t* yield_at_ = &kNoYield;

  std::priority_queue<PendingEvent, std::vector<PendingEvent>, std::greater<>> events_;
  uint64_t event_seq_ = 0;

  bool parked_ = false;  // In WaitForInterrupt, waiting on the World.
};

class Machine {
 public:
  struct Config {
    uint32_t phys_pages = 4096;  // 16 MB, a well-equipped DECstation.
    const char* name = "m0";
    uint32_t cpus = 1;  // Processor count (SMP machines may join a World).
  };

  explicit Machine(const Config& config, World* world = nullptr);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Installs the kernel and returns the privileged port. Exactly one kernel
  // per machine; interrupts on every CPU vector to it.
  PrivPort& InstallKernel(TrapSink* kernel);

  // The executing CPU's clock and TLB. Host-side (outside RunCpus) these
  // are CPU 0's, which on a single-CPU machine is exactly the old machine
  // state. Every CPU owns a local clock — including CPU 0 of a
  // world-attached machine; the world orders CPUs by these local clocks.
  CycleClock& clock() { return active_->clock(); }
  const CycleClock& clock() const { return active_->clock(); }
  PhysMem& mem() { return mem_; }
  Tlb& tlb() { return active_->tlb(); }
  const char* name() const { return config_.name; }

  uint32_t cpu_count() const { return static_cast<uint32_t>(cpus_.size()); }
  uint32_t current_cpu() const { return active_->index(); }
  Cpu& cpu(uint32_t index) { return *cpus_[index]; }

  // Highest local cycle count across CPUs: the wall-clock of an SMP run.
  uint64_t MaxCpuCycle() const;

  // True if `cpu` is parked in WaitForInterrupt.
  // Kernels use this to decide whether a cross-CPU wake needs an IPI kick
  // (a busy CPU will rescan on its own; a parked one sleeps until an event).
  bool CpuParked(uint32_t index) const { return cpus_[index]->parked_; }

  // --- Unprivileged CPU operations (act on the executing CPU) ---

  // Advances simulated time and delivers any due interrupts.
  void Charge(uint64_t cycles) { active_->Charge(cycles); }

  // Translated memory access. Word accesses must be 4-byte aligned (raises
  // kAddressError otherwise). TLB misses and write-protection vector to the
  // kernel; if the kernel cannot resolve them the access returns an error.
  Result<uint32_t> LoadWord(Vaddr va);
  Status StoreWord(Vaddr va, uint32_t value);

  // ALU trap sources (paper Table 5 workloads).
  Result<int32_t> AddOverflow(int32_t a, int32_t b);  // Signed add, traps on overflow.
  Status CoprocOp();                                  // FP op; traps if coproc disabled.

  // Delivers whatever is due; if nothing is, parks the executing CPU once
  // on the World and, when resumed, delivers what has come due and
  // returns. A resume with nothing to deliver is a spurious wake: callers
  // loop and re-check their run condition. Must run on a World context
  // (inside World::Run, or RunCpus on a standalone machine); aborts
  // otherwise.
  void WaitForInterrupt();

  // Runs one body per CPU, interleaved at charge boundaries so that, among
  // this machine's CPUs, the one with the lowest local cycle count executes
  // first. `bodies[0]` runs inline on the calling machine body, which is
  // CPU 0; every other CPU runs on a World context of its own, scheduled
  // alongside every other machine's, and RunCpus returns once all bodies
  // have. Standalone, RunCpus runs the machine as the only member of a
  // private World and aborts if the CPUs all park with no pending events
  // (a hang). Requires exactly cpu_count() bodies.
  void RunCpus(std::vector<std::function<void()>> bodies);

  // Deterministic per-machine id assigned by the world (0 standalone).
  uint32_t world_index() const { return world_index_; }
  void set_world_index(uint32_t index) { world_index_ = index; }

 private:
  friend class Cpu;
  friend class PrivPort;
  friend class World;
  friend class Nic;   // Devices post their own completion events.
  friend class Disk;

  // Translates va for an access; raises exceptions as needed. Returns the
  // physical address, or an error if the kernel could not resolve the fault.
  Result<Paddr> Translate(Vaddr va, bool store);

  TrapOutcome RaiseException(ExceptionType type, Vaddr bad_vaddr, bool store);

  // Device events are wired to CPU 0, as on most real boards. `origin` as
  // in Cpu::PushEvent.
  void PushEvent(uint64_t due_cycle, InterruptSource source, uint64_t payload,
                 uint32_t origin);

  Config config_;
  PhysMem mem_;
  PrivPort priv_;
  World* world_;  // Null standalone, except inside RunCpus.
  uint32_t world_index_ = 0;

  TrapSink* kernel_ = nullptr;
  Nic* nic_ = nullptr;  // Lands arrived wire frames when kNicRx delivers.

  std::vector<std::unique_ptr<Cpu>> cpus_;
  Cpu* active_ = nullptr;      // The CPU whose code is executing now.
  bool smp_running_ = false;   // Inside RunCpus (its reentrancy guard).
};

// --- PrivPort operations on every kernel's dispatch path ---

inline void PrivPort::SetAsid(Asid asid) {
  machine_.Charge(Instr(1));
  machine_.active_->asid_ = asid;
}

inline void PrivPort::SetSliceDeadline(uint64_t absolute_cycle) {
  machine_.Charge(Instr(1));
  // Written after the charge, as one atomic compare-register update: the
  // charge can only deliver the deadline being replaced. A new deadline at
  // or before the current cycle (including cycle 0) stays armed and fires
  // on the next charge boundary.
  Cpu& cpu = *machine_.active_;
  cpu.slice_deadline_ = absolute_cycle;
  cpu.slice_armed_ = true;
  cpu.attention_ = std::min(cpu.attention_, absolute_cycle);
}

inline void PrivPort::ClearSliceDeadline() {
  machine_.Charge(Instr(1));
  Cpu& cpu = *machine_.active_;
  cpu.slice_deadline_ = 0;
  cpu.slice_armed_ = false;
  cpu.attention_ = cpu.NextDueCycle();
}

inline int PrivPort::SwapTrapDepth(int depth) {
  const int old = machine_.active_->trap_depth_;
  machine_.active_->trap_depth_ = depth;
  return old;
}

}  // namespace xok::hw

#endif  // XOK_SRC_HW_MACHINE_H_
