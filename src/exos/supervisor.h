// ExOS supervision tree: an init-style supervisor environment, written
// entirely as untrusted library policy over three kernel primitives —
// SysEnvAlive/SysEnvStats (global visibility of who is alive and making
// progress), death-notification wakeups (a kill or exit wakes blocked
// peers early), and SysKillEnv (forced reap with the child's env_cap).
//
// The supervisor spawns children from ChildSpecs, then sits in a
// sample-sleep loop: when a child dies it restarts it according to its
// RestartPolicy with exponential backoff; when a child stops making
// progress (its cycles+syscalls counters freeze for `stall_samples`
// consecutive samples) the supervisor kills and restarts it; a child
// that exceeds max_restarts is declared a permanent failure. Run()
// returns when no child is running or waiting to restart.
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
  kOnFailure,  // Restart on crash/kill; clean SysExit is final.
  kAlways,     // Restart on any exit (a service that should run forever).
};

enum class ChildState : uint8_t {
  kRunning,
  kBackoff,   // Dead; respawn scheduled at restart_at.
  kDone,      // Exited and policy says leave it.
  kFailed,    // Crash-looped past max_restarts.
};

struct ChildSpec {
  std::string name;
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
  // Heartbeat: a child whose progress counters (cycles_on_cpu +
  // syscalls) are unchanged for this many consecutive samples is deemed
  // wedged and killed. 0 disables stall detection.
  uint32_t stall_samples = 0;
};

struct ChildStatus {
  std::string name;
  ChildState state = ChildState::kRunning;
  aegis::EnvId env = aegis::kNoEnv;  // Current (or last) incarnation.
  uint32_t restarts = 0;
  uint32_t stall_kills = 0;  // Restarts forced by heartbeat stalls.
};

// The supervisor owns its own environment: construction spawns it, and
// its fiber runs the supervision loop. Child Processes are created from
// that fiber. Query Wait()/status() from the host after Aegis::Run().
class Supervisor {
 public:
  struct Options {
    // Cycles between liveness/heartbeat samples. Death notifications
    // wake the loop early, so this bounds stall detection latency, not
    // crash-restart latency.
    uint64_t sample_interval = 100'000;
    Process::Options process;  // Options for the supervisor env itself.
  };

  Supervisor(aegis::Aegis& kernel, std::vector<ChildSpec> specs,
             const Options& options);
  Supervisor(aegis::Aegis& kernel, std::vector<ChildSpec> specs)
      : Supervisor(kernel, std::move(specs), Options{}) {}

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
  uint64_t samples() const { return samples_; }
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
    uint32_t stall_kills = 0;
    uint64_t backoff = 0;      // Next backoff delay.
    uint64_t restart_at = 0;   // Cycle to respawn at (kBackoff only).
    uint64_t last_progress = 0;
    uint32_t stalled = 0;      // Consecutive samples with no progress.
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
  Options options_;
  std::vector<Child> children_;
  std::vector<ChildStatus> status_;
  std::unique_ptr<Process> proc_;
  uint64_t samples_ = 0;
  bool finished_ = false;
};

}  // namespace xok::exos

#endif  // XOK_SRC_EXOS_SUPERVISOR_H_
