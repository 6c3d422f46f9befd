// A World co-simulates several machines over one simulated wire by
// scheduling *CPUs*: every CPU of every attached machine runs on its own
// fiber against its own local cycle clock, and yields at charge boundaries.
//
// Each context has a key, the cycle at which strict lowest-clock order
// would next need it: a ready context's clock + 1, a parked context's next
// due cycle. Within one machine the order is strict: a running CPU yields
// once its clock reaches the key of another of its machine's contexts, and
// the next pick is the parked context whose event is due no later than
// every ready clock (its clock advanced to the due cycle, the only place
// idle time passes), else the ready context with the lowest clock. Ready
// CPUs tied on clock go to the one that ran last, so a CPU that yielded for
// another machine resumes as if it had never stopped; other ties break by
// CPU index.
//
// Across machines the World uses conservative lookahead, as in the
// Chandy-Misra-Bryant null-message protocol. Machines interact only through
// the wire, and a frame cannot land sooner than every charge on its way
// after its sender's clock: the sender's copy of a minimum-size frame and
// its controller's latency (Nic::Transmit), then the frame's serialisation
// and the receiving controller's latency, 16 + 1000 + 14 * 20 + 1000 = 2296
// cycles. A ready context's key is already its clock + 1, so kLookahead is
// 2295. A CPU may yield inside Transmit's charges, though, and then the
// frame may have paid the sender's part: while a machine's NIC has such a
// frame it takes the wire's part alone, kSendingLookahead = 1279. A
// machine's reach is its lowest key plus the lookahead that applies. A
// running CPU yields to another machine only once its clock reaches that
// machine's reach, and Dispatch keeps dispatching the current machine's
// CPUs, scanning only that machine's contexts, while the machine's next key
// stays below the other machines' lowest reach. Then it moves to the
// machine with the lowest key. Every frame is thus on its receiver's queue
// before the receiver's clock reaches its arrival, and with same-cycle
// events ordered by origin machine (Cpu::PushEvent) each machine computes
// exactly what it would under strict global lowest-clock order.
//
// This is the simulator's only interleaver, and every context it schedules
// is exactly one CPU. Run starts each machine's body as a context on CPU 0,
// so the body is CPU 0 until it enters RunCpus; RunCpus adds a context for
// each further CPU, runs CPU 0's body inline and waits for its siblings to
// return. A machine built without a World runs RunCpus as the only member
// of a private one, so standalone SMP machines, uniprocessors and racks all
// follow the same algorithm.
//
// Handoff is direct. A context that yields, parks or starts joining its
// siblings runs Dispatch, the per-dispatch decision, itself, and switches
// straight to the pick: one host switch, or none when the pick is the
// context itself (a parked CPU whose own event is next). The world fiber
// runs only to start and end Run, to take back a context whose body has
// returned, and for the quiescence sweep, when no machine has a key;
// contexts the sweep resumes return to the world fiber, so it wakes them
// in its own order.
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
  // its own fiber as CPU 0 of that machine, interleaving all CPUs as above
  // until every body returns or the world quiesces (all contexts parked
  // with no pending events). `bodies[i]` is the kernel main loop for
  // machine i.
  void Run(std::vector<std::function<void()>> bodies);

  // --- Used by Machine (not by kernels or applications) ---

  void Attach(Machine* machine);

  // Called from Machine::RunCpus on an attached machine, on its CPU-0
  // context: adds a context for each of CPUs 1..n-1, runs `bodies[0]`
  // inline, then waits, never scheduled, until every sibling has returned.
  void RunCpus(Machine* machine, std::vector<std::function<void()>> bodies);

  // Saves the running context and hands the CPU's host thread to the next
  // pick. Called from Cpu::Attend once the clock reaches yield_at_.
  void YieldCurrent();  // Stays ready: resumed by clock order.
  void ParkCurrent();   // Sleeps: resumed by a due event, or spuriously by
                        //   the quiescence sweep.

  // An event due at `due` was queued on `cpu`: if that CPU's context is
  // parked, lowers its key, its machine's key and the running context's
  // yield threshold.
  void NoteEventPosted(const Cpu* cpu, uint64_t due);

 private:
  static constexpr uint64_t kNever = ~0ULL;

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

  // One attached machine and its contexts, in CPU order.
  struct Member {
    Machine* machine = nullptr;
    std::vector<std::unique_ptr<Ctx>> ctxs;
    const Ctx* last = nullptr;  // Dispatched most recently.
    // The lowest key of its contexts. Exact for every machine but the one
    // Dispatch is dispatching, which sets its own on leaving it: the
    // others' contexts are frozen, and only NoteEventPosted can lower one's
    // key.
    uint64_t key = kNever;
  };

  // The context strict order runs next within one machine; its key, which
  // is the machine's lowest; and the lowest key of the machine's other
  // contexts.
  struct Pick {
    Ctx* ctx = nullptr;
    uint64_t key = kNever;
    uint64_t next = kNever;
  };

  static Pick PickIn(const Member& member);

  // The world fiber's loop: resumes Dispatch's picks, takes back contexts
  // whose bodies return, and sweeps when no machine has a key.
  void Schedule();
  // The next context to run, its clock advanced to its key if it was
  // parked and yield_at_ set for it; null when no machine has a key.
  // Dispatches the current machine's strict-order pick while its key stays
  // below every other machine's reach (ReachOf), then moves to the machine
  // with the lowest key (ties to the lowest world index).
  Ctx* Dispatch();
  // Marks `ctx` as the running context of its machine.
  void Enter(Ctx* ctx);
  // From the world fiber: runs `ctx` until control returns to the world
  // fiber; the caller has already set yield_at_ for it.
  void ResumeCtx(Ctx* ctx);
  // From `self`, which has just stopped running: switches to Dispatch's
  // pick, or to the world fiber if there is none or a sweep is running.
  void Leave(Ctx* self);
  // Sets yield_at_ for `ctx` by a scan of every machine.
  void SetYieldAt(const Ctx& ctx);
  // How far another machine may run while `machine`'s lowest key is
  // `key`: key + kLookahead, or key + kSendingLookahead while one of its
  // CPUs is inside Nic::Transmit.
  static uint64_t ReachOf(const Machine& machine, uint64_t key);
  // The lowest reach of every machine but `current`.
  uint64_t HorizonFor(size_t current) const;
  // Adds a ready context running `body` on `machine`'s CPU `cpu`, at its
  // place in CPU order.
  void AddCtx(Machine* machine, uint32_t cpu, std::function<void()> body);
  Member& MemberOf(const Machine* machine);
  // True once every CPU of `member` but CPU 0 has returned.
  static bool SiblingsDone(const Member& member);

  std::vector<Member> members_;  // By world index.
  Fiber world_fiber_;
  Ctx* running_ = nullptr;  // Null while the world fiber runs.
  bool scheduling_ = false;
  bool sweeping_ = false;
  size_t current_ = 0;  // The machine Dispatch is dispatching.
  // HorizonFor(current_), kept exact while Run runs.
  uint64_t horizon_ = kNever;
  // The running context's yield threshold: the lowest key of the rest of
  // its machine, or horizon_. kNever outside Run.
  uint64_t yield_at_ = kNever;
  // Bumped on anything that could let a quiescence sweep make progress
  // (events posted, contexts finishing, RunCpus groups starting/joining).
  uint64_t progress_epoch_ = 0;
};

}  // namespace xok::hw

#endif  // XOK_SRC_HW_WORLD_H_
