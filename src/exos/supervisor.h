// ExOS supervision tree: an init-style supervisor environment, written
// entirely as untrusted library policy over kernel primitives —
// SysEnvAlive/SysEnvStats (who is alive, and whether a dead env was
// killed), death-notification wakeups (a forced death wakes every live
// env), SysWake and SysSleep/SysBlock.
//
// The supervisor spawns children from ChildSpecs and then waits only on
// events: a child's forced death (the kernel's broadcast) or its clean
// exit (each incarnation's body is wrapped so that a normal return wakes
// the supervisor — the kernel keeps clean exits silent). A dead child is
// restarted per its RestartPolicy after an exponential backoff, the one
// timed wait; a child that exceeds max_restarts is declared a permanent
// failure. There is no heartbeat: a child that is alive but wedged is
// not the supervisor's to detect. The loop ends when no child is running
// or waiting to restart.
#ifndef XOK_SRC_EXOS_SUPERVISOR_H_
#define XOK_SRC_EXOS_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/exos/process.h"

namespace xok::exos {

enum class RestartPolicy : uint8_t {
  kNever,      // Never restart; any exit is final.
  kOnFailure,  // Restart on crash/kill; a clean exit is final.
};

enum class ChildState : uint8_t {
  kRunning,
  kBackoff,   // Dead; respawn scheduled at restart_at.
  kDone,      // Exited and policy says leave it.
  kFailed,    // Crash-looped past max_restarts.
};

struct ChildSpec {
  std::string name;
  // Ends by returning: a body that calls SysExit itself exits unseen.
  std::function<void(Process&)> body;
  Process::Options options{};
  RestartPolicy policy = RestartPolicy::kOnFailure;
  // Observation hook, fired from the supervisor's fiber on every
  // supervision-state transition (respawned, backing off, done, failed).
  // Pure library policy: the server libOS uses it to re-steer a dead
  // shard's traffic to a sibling while the child is down.
  std::function<void(ChildState)> on_state_change{};
  // Restarts allowed before the child is declared permanently failed
  // (crash-loop breaker).
  uint32_t max_restarts = 4;
  // Exponential backoff between a death and the respawn, in cycles.
  uint64_t backoff_initial = 50'000;
  uint64_t backoff_cap = 800'000;
};

struct ChildStatus {
  std::string name;
  ChildState state = ChildState::kRunning;
  aegis::EnvId env = aegis::kNoEnv;  // Current (or last) incarnation.
  uint32_t restarts = 0;
};

// The supervisor owns its own environment: construction spawns it, and
// its fiber runs the supervision loop. Child Processes are created from
// that fiber. Query status() from the host after Aegis::Run().
class Supervisor {
 public:
  Supervisor(aegis::Aegis& kernel, std::vector<ChildSpec> specs);

  bool ok() const { return proc_ != nullptr && proc_->ok(); }
  aegis::EnvId id() const { return proc_->id(); }
  Process& process() { return *proc_; }

  // Snapshot of every child's supervision state (valid once Run ends,
  // or mid-run from another fiber).
  const std::vector<ChildStatus>& status() const { return status_; }
  // Current (or last) incarnation of child `i`, nullptr if none spawned
  // yet. Mid-run access from another fiber is safe (cooperative fibers);
  // chaos tests use this to obtain a live child's env_cap for SysKillEnv.
  const Process* child(size_t i) const {
    return i < children_.size() ? children_[i].proc.get() : nullptr;
  }
  uint32_t total_restarts() const;
  // True when the loop finished (all children done/failed) rather than
  // the supervisor itself being killed mid-flight.
  bool finished() const { return finished_; }

 private:
  struct Child {
    ChildSpec spec;
    std::unique_ptr<Process> proc;
    ChildState state = ChildState::kRunning;
    uint32_t restarts = 0;
    uint64_t backoff = 0;      // Next backoff delay.
    uint64_t restart_at = 0;   // Cycle to respawn at (kBackoff only).
    // Set by the incarnation itself when its body returns: from then on
    // SysExit is all it has left, even if it is preempted before it.
    bool returned = false;
  };

  void Main();
  void Spawn(Child& child);
  // State transition + the spec's observation hook.
  void SetState(Child& child, ChildState state);
  // Moves a dead child to kBackoff/kDone/kFailed per policy; `crashed`
  // distinguishes kill/crash from clean exit.
  void HandleDeath(Child& child, bool crashed, uint64_t now);
  void PublishStatus();

  aegis::Aegis& kernel_;
  std::vector<Child> children_;
  std::vector<ChildStatus> status_;
  std::unique_ptr<Process> proc_;
  bool finished_ = false;
};

}  // namespace xok::exos

#endif  // XOK_SRC_EXOS_SUPERVISOR_H_
