// A World co-simulates several machines over one simulated wire by
// scheduling *CPUs*: every CPU of every attached machine runs on its own
// fiber against its own local cycle clock, and the world always resumes the
// schedulable context with the globally lowest local clock (ties broken by
// (machine_index, cpu_index), so runs are deterministic). A running CPU
// yields at a charge boundary when some parked context's event has come due
// or a ready context's clock has fallen behind, so cross-machine event
// delivery order is globally consistent with simulated time (with skew
// bounded by the distance between cycle-charge points).
//
// This is the simulator's only interleaver, and every context it schedules
// is exactly one CPU. Run starts each machine's body as a context on CPU 0,
// so the body is CPU 0 until it enters RunCpus; RunCpus adds a context for
// each further CPU, runs CPU 0's body inline and waits for its siblings to
// return. A machine built without a World runs RunCpus as the only member
// of a private one, so standalone SMP machines, uniprocessors and racks all
// follow the same algorithm.
#ifndef XOK_SRC_HW_WORLD_H_
#define XOK_SRC_HW_WORLD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/hw/fiber.h"

namespace xok::hw {

class Cpu;
class Machine;

class World {
 public:
  World();
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Runs `body` for each previously-attached machine (in attach order) on
  // its own fiber as CPU 0 of that machine, interleaving all CPUs by local
  // clock until every body returns or the world quiesces (all contexts
  // parked with no pending events). `bodies[i]` is the kernel main loop for
  // machine i.
  void Run(std::vector<std::function<void()>> bodies);

  // --- Used by Machine (not by kernels or applications) ---

  void Attach(Machine* machine);

  // Called from Machine::RunCpus on an attached machine, on its CPU-0
  // context: adds a context for each of CPUs 1..n-1, runs `bodies[0]`
  // inline, then waits, never scheduled, until every sibling has returned.
  void RunCpus(Machine* machine, std::vector<std::function<void()>> bodies);

  // True if the currently-running context should hand control back: some
  // parked context's event is due at or before `now`, or a ready context's
  // local clock is strictly behind. Checked from Cpu::Charge.
  bool ShouldYield(uint64_t now) const {
    return scheduling_ && (parked_min_due_ <= now || ready_min_clock_ < now);
  }

  // Saves the running context and re-enters the scheduler.
  void YieldCurrent();  // Stays ready: resumed by clock order.
  void ParkCurrent();   // Sleeps: resumed by a due event, or spuriously by
                        //   the quiescence sweep.

  // An event due at `due` was queued on `cpu`: lower the due-event cache if
  // that CPU's context is parked, so a running context's next charge can
  // notice it.
  void NoteEventPosted(const Cpu* cpu, uint64_t due);

 private:
  // kJoining: CPU 0 inside RunCpus, waiting for its siblings to return.
  enum class CtxState : uint8_t { kReady, kRunning, kParked, kJoining, kDone };

  // One schedulable execution context: one CPU of an attached machine.
  // `fiber` doubles as the entry fiber and the continuation slot: a switch
  // away saves whatever the CPU was executing (kernel loop or environment
  // fiber), and a switch back resumes it exactly there.
  struct Ctx {
    Machine* machine = nullptr;
    Cpu* cpu = nullptr;
    std::unique_ptr<Fiber> fiber;
    CtxState state = CtxState::kReady;
  };

  // Core scheduler loop; runs on the world fiber.
  void Schedule();
  // Runs `ctx` until it switches back; the caller has already set the
  // ShouldYield caches over every other context.
  void ResumeCtx(Ctx* ctx);
  // Adds a ready context running `body` on `machine`'s CPU `cpu`, at its
  // (world_index, cpu index) place in scan order.
  void AddCtx(Machine* machine, uint32_t cpu, std::function<void()> body);
  // True once every CPU of `machine` but CPU 0 has returned.
  bool SiblingsDone(const Machine* machine) const;
  // Sets the caches by a full scan of the contexts not running.
  void RecomputeCaches();

  static constexpr uint64_t kNever = ~0ULL;

  std::vector<Machine*> machines_;
  std::vector<std::unique_ptr<Ctx>> ctxs_;
  Fiber world_fiber_;
  Ctx* running_ = nullptr;
  bool scheduling_ = false;
  // Caches consulted by ShouldYield on every charge: the earliest due event
  // of any parked context and the lowest clock of any ready one, the running
  // context excluded. Set at each dispatch and kept exact while a context
  // runs: other contexts' clocks are frozen, and only NoteEventPosted can
  // move another context's next due cycle (and only earlier).
  uint64_t parked_min_due_ = kNever;
  uint64_t ready_min_clock_ = kNever;
  // Bumped on anything that could let a quiescence sweep make progress
  // (events posted, contexts finishing, RunCpus groups starting/joining).
  uint64_t progress_epoch_ = 0;
};

}  // namespace xok::hw

#endif  // XOK_SRC_HW_WORLD_H_
