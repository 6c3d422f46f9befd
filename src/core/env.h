// Processor environments (paper §5.1.2): the exokernel's only "process"
// notion. An environment holds the four contexts Aegis needs to deliver
// hardware events to applications — exception context, interrupt (end of
// slice) context, protected entry contexts, and the addressing context —
// plus the execution fiber and the bookkeeping for scheduling, revocation,
// and asynchronous protected control transfers. *Everything else* that a
// traditional OS would put in a process (address-space layout, fds, signal
// state) lives in library operating systems (src/exos, src/ultrix is the
// contrast case).
#ifndef XOK_SRC_CORE_ENV_H_
#define XOK_SRC_CORE_ENV_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/cap/capability.h"
#include "src/core/xtrace.h"
#include "src/hw/fiber.h"
#include "src/hw/trap.h"

namespace xok::aegis {

using EnvId = uint32_t;
inline constexpr EnvId kNoEnv = 0;
inline constexpr EnvId kAnyEnv = 0xffffffffu;

// CPU naming for slice placement. kNoCpu marks "not on any CPU right now";
// kAnyCpu asks the kernel to pick (least-loaded placement).
inline constexpr uint32_t kNoCpu = 0xffffffffu;
inline constexpr uint32_t kAnyCpu = 0xffffffffu;
// EnvSpec cpu_mask value admitting every CPU.
inline constexpr uint64_t kAnyCpuMask = ~0ULL;

// Argument/result "registers" for protected control transfer: the paper
// notes that because Aegis never overwrites application-visible registers,
// the register file doubles as the message buffer (ref [14]).
struct PctArgs {
  std::array<uint32_t, 8> regs{};
};

// What an application exception handler tells the kernel to do.
enum class ExcAction : uint8_t {
  kRetry,  // Handler fixed the cause (e.g. installed a mapping); re-run.
  kSkip,   // Abandon the faulting operation.
};

// The application-level contexts. All run *as the application* (their
// simulated cycles bill to the environment's slice).
struct EnvHandlers {
  // Exception context: receives every hardware exception the kernel cannot
  // satisfy from its own secure-binding caches.
  std::function<ExcAction(const hw::TrapFrame&)> exception;

  // Interrupt context: runs at end-of-slice so the application can save
  // its own state (paper: applications do their own context switching;
  // time beyond the epilogue budget accrues excess-time penalties).
  std::function<void()> timer_epilogue;

  // Protected entry contexts (synchronous and asynchronous PCT).
  std::function<PctArgs(const PctArgs&)> pct_sync;
  std::function<void(const PctArgs&)> pct_async;

  // Revocation context: "please release `pages` physical pages" (visible
  // revocation, paper §3.4). Failure to comply triggers the abort protocol.
  std::function<void(uint32_t pages)> revoke;
};

enum class EnvState : uint8_t {
  kRunnable,
  kBlocked,  // SysBlock'ed; a wake makes it runnable again.
  kExited,
};

struct Env {
  EnvId id = kNoEnv;
  hw::Asid asid = 0;
  EnvState state = EnvState::kRunnable;
  std::unique_ptr<hw::Fiber> fiber;
  EnvHandlers handlers;
  cap::Capability self_cap;  // Grants control (wake, PCT) over this env.

  // Trap nesting of the suspended context (restored on resume).
  int saved_trap_depth = 0;

  // Wake-pending latch: a wake aimed at a runnable environment is
  // remembered, so a SysBlock racing with it (preempted between "set
  // waiting flag" and "block") returns immediately instead of sleeping
  // through a lost wakeup.
  bool wake_pending = false;

  // Generation of the env's SysSleep alarm, carried in the alarm's payload.
  // Odd while a sleep is in progress; an alarm whose generation no longer
  // matches belongs to a sleep that already ended and is ignored.
  uint32_t alarm_gen = 0;

  // Scheduling accounting.
  uint64_t slices_run = 0;
  uint32_t excess_penalty = 0;  // Slices to forfeit (epilogue overruns).
  uint64_t epilogue_overruns = 0;

  // --- SMP placement ---
  // CPUs this environment may hold slices on (intersected with the
  // machine's CPU count at birth).
  uint64_t cpu_mask = kAnyCpuMask;
  // CPU currently executing this environment's fiber; kNoCpu when it is
  // not on any CPU. Claimed by the per-CPU scheduler before any cycle is
  // charged, so no two CPUs can resume the same fiber.
  uint32_t on_cpu = kNoCpu;
  // CPU that last ran the environment (migration detection).
  uint32_t last_cpu = 0;
  // Bitmask of CPUs holding at least one of this env's slice slots, kept
  // in step with slice_slots; cross-CPU wakes IPI the parked CPUs in it.
  uint64_t slot_mask = 0;
  // Slice-vector slots currently owned across all CPUs (audit cross-check).
  uint32_t slice_slots = 0;
  // A forced kill aimed at this env is in flight on another CPU (IPI sent);
  // the env must not be rescheduled or migrated meanwhile.
  bool kill_pending = false;

  // Asynchronous PCT mailbox, drained before the env resumes.
  std::deque<PctArgs> mailbox;

  // Pages taken by the abort protocol, awaiting SysReadRepossessed. Bounded:
  // past kMaxRepossessed entries the kernel still reclaims the frame but
  // drops the notification, counting it in counters.repossess_overflow —
  // a libOS that never drains its vector must not grow kernel state.
  static constexpr size_t kMaxRepossessed = 64;
  std::vector<hw::PageId> repossessed;

  // Live page count (for revocation targeting and accounting).
  uint32_t pages_owned = 0;

  // Free-running resource accounting (xtrace): hardware-counter-style,
  // charges nothing, readable via SysEnvStats. The kernel only counts;
  // rates, ratios, and reporting are library policy.
  xtrace::EnvCounters counters;

  // In-flight disk transfer: set before blocking, cleared by the completion
  // interrupt (or by teardown cancelling the request). The result carries
  // injected media errors back to the blocked SysDiskRead/Write caller.
  bool disk_pending = false;
  Status disk_result = Status::kOk;

  // Torn down by KillEnv (forced exit with full resource reclamation), as
  // opposed to a clean SysExit, after which ownership of pages/extents
  // deliberately persists so capabilities already handed to peers keep
  // working.
  bool killed = false;
};

}  // namespace xok::aegis

#endif  // XOK_SRC_CORE_ENV_H_
