#include "src/exos/supervisor.h"

#include <algorithm>

namespace xok::exos {

Supervisor::Supervisor(aegis::Aegis& kernel, std::vector<ChildSpec> specs)
    : kernel_(kernel) {
  children_.reserve(specs.size());
  for (ChildSpec& spec : specs) {
    Child child;
    child.spec = std::move(spec);
    children_.push_back(std::move(child));
  }
  proc_ = std::make_unique<Process>(kernel_, [this](Process&) { Main(); });
  PublishStatus();
}

uint32_t Supervisor::total_restarts() const {
  uint32_t total = 0;
  for (const ChildStatus& status : status_) {
    total += status.restarts;
  }
  return total;
}

void Supervisor::SetState(Child& child, ChildState state) {
  child.state = state;
  if (child.spec.on_state_change) {
    child.spec.on_state_change(state);
  }
}

void Supervisor::Spawn(Child& child) {
  // Replacing the unique_ptr drops the dead incarnation's Process;
  // environment ids are never reused, so the old id stays queryable
  // through SysEnvStats regardless. The kernel broadcasts forced deaths
  // but keeps clean exits silent, so the incarnation reports its own
  // normal return by waking the supervisor with its env_cap (children_
  // never reallocates after construction, so &child stays valid).
  child.proc = std::make_unique<Process>(
      kernel_,
      [this, &child](Process& p) {
        child.spec.body(p);
        child.returned = true;
        (void)p.kernel().SysWake(proc_->id(), proc_->env_cap());
      },
      child.spec.options);
  if (!child.proc->ok()) {
    // Env creation failed (asid space exhausted) — nothing to wait for.
    SetState(child, ChildState::kFailed);
    return;
  }
  SetState(child, ChildState::kRunning);
}

void Supervisor::HandleDeath(Child& child, bool crashed, uint64_t now) {
  const bool restart = crashed && child.spec.policy == RestartPolicy::kOnFailure;
  if (!restart) {
    SetState(child, crashed ? ChildState::kFailed : ChildState::kDone);
    return;
  }
  ++child.restarts;
  if (child.restarts > child.spec.max_restarts) {
    // Crash loop: restarting clearly isn't fixing it.
    SetState(child, ChildState::kFailed);
    return;
  }
  if (child.backoff == 0) {
    child.backoff = child.spec.backoff_initial;
  }
  child.restart_at = now + child.backoff;
  child.backoff = std::min(child.backoff * 2, child.spec.backoff_cap);
  SetState(child, ChildState::kBackoff);
}

void Supervisor::Main() {
  for (Child& child : children_) {
    Spawn(child);
  }
  PublishStatus();
  while (true) {
    bool live = false;
    uint64_t respawn_at = UINT64_MAX;
    const uint64_t now = kernel_.SysGetCycles();
    for (Child& child : children_) {
      if (child.state == ChildState::kBackoff && now >= child.restart_at) {
        Spawn(child);
      }
      if (child.state == ChildState::kRunning) {
        const aegis::EnvId env = child.proc->id();
        if (!child.returned && kernel_.SysEnvAlive(env)) {
          live = true;
          continue;
        }
        // A body that returned exited cleanly; any other death with
        // killed=true is a crash/forced reap — that distinction drives
        // kOnFailure.
        bool crashed = false;
        if (!child.returned) {
          Result<aegis::EnvStats> stats = kernel_.SysEnvStats(env);
          crashed = stats.ok() && stats->killed;
        }
        HandleDeath(child, crashed, now);
      }
      if (child.state == ChildState::kBackoff) {
        live = true;
        respawn_at = std::min(respawn_at, child.restart_at);
      }
    }
    PublishStatus();
    if (!live) {
      break;
    }
    // Deaths and clean exits wake us; the one timed wait is the earliest
    // due respawn.
    if (respawn_at == UINT64_MAX) {
      kernel_.SysBlock();
    } else {
      kernel_.SysSleep(respawn_at - now);
    }
  }
  finished_ = true;
  PublishStatus();
}

void Supervisor::PublishStatus() {
  status_.clear();
  status_.reserve(children_.size());
  for (const Child& child : children_) {
    ChildStatus status;
    status.name = child.spec.name;
    status.state = child.state;
    status.env = child.proc != nullptr ? child.proc->id() : aegis::kNoEnv;
    status.restarts = child.restarts;
    status_.push_back(std::move(status));
  }
}

}  // namespace xok::exos
