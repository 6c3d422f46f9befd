#include "src/hw/world.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/hw/machine.h"

namespace xok::hw {

World::World() = default;

World::~World() = default;

void World::Attach(Machine* machine) {
  machine->set_world_index(static_cast<uint32_t>(machines_.size()));
  machines_.push_back(machine);
}

void World::Run(std::vector<std::function<void()>> bodies) {
  if (bodies.size() != machines_.size()) {
    std::fprintf(stderr, "xok: World::Run needs one body per attached machine\n");
    std::abort();
  }
  ctxs_.clear();
  for (size_t i = 0; i < machines_.size(); ++i) {
    AddCtx(machines_[i], 0, std::move(bodies[i]));
  }
  scheduling_ = true;
  Schedule();
  scheduling_ = false;
}

void World::Schedule() {
  // Lowest-local-clock-first over every context of every machine: among
  // ready contexts pick the one whose clock is furthest behind; wake a
  // parked context instead when its next event is due no later than every
  // ready context's present, advancing its clock to the due cycle (the
  // only place idle time passes). Ties break by (machine_index,
  // cpu_index) — attach order — so runs are deterministic. When nothing is
  // ready and nothing is due, sweep every parked context with a spurious
  // wake so its loop can observe a global exit condition; if a full sweep
  // changes nothing the world quiesces, returning with any still-parked
  // bodies abandoned.
  bool swept = false;
  for (;;) {
    // One pass picks the next context and, by keeping the two smallest
    // ready clocks and the two earliest parked dues, the ShouldYield
    // thresholds over every context but the one picked.
    Ctx* best_ready = nullptr;
    uint64_t ready_min = kNever;
    uint64_t ready_next = kNever;
    Ctx* best_parked = nullptr;
    uint64_t parked_min = kNever;
    uint64_t parked_next = kNever;
    bool any_parked = false;
    for (const std::unique_ptr<Ctx>& ctx : ctxs_) {
      if (ctx->state == CtxState::kReady) {
        const uint64_t now = ctx->cpu->clock().now();
        if (best_ready == nullptr || now < ready_min) {
          ready_next = ready_min;
          ready_min = now;
          best_ready = ctx.get();  // Scan order is the (machine, cpu) tie-break.
        } else if (now < ready_next) {
          ready_next = now;
        }
      } else if (ctx->state == CtxState::kParked) {
        any_parked = true;
        const uint64_t due = ctx->cpu->NextDueCycle();
        if (due < parked_min) {
          parked_next = parked_min;
          parked_min = due;
          best_parked = ctx.get();
        } else if (due < parked_next) {
          parked_next = due;
        }
      }
    }
    if (best_parked != nullptr && parked_min <= ready_min) {
      best_parked->cpu->clock().AdvanceTo(parked_min);
      swept = false;
      parked_min_due_ = parked_next;
      ready_min_clock_ = ready_min;
      ResumeCtx(best_parked);
      continue;
    }
    if (best_ready != nullptr) {
      swept = false;
      parked_min_due_ = parked_min;
      ready_min_clock_ = ready_next;
      ResumeCtx(best_ready);
      continue;
    }
    if (!any_parked) {
      return;  // Every body returned.
    }
    if (swept) {
      return;  // Swept with no progress: quiescent.
    }
    swept = true;
    const uint64_t epoch = progress_epoch_;
    // A CPU 0 leaving RunCpus erases its siblings' contexts, so walk a
    // snapshot.
    std::vector<Ctx*> sweep;
    for (const std::unique_ptr<Ctx>& ctx : ctxs_) {
      if (ctx->state == CtxState::kParked) {
        sweep.push_back(ctx.get());
      }
    }
    for (Ctx* ctx : sweep) {
      ctx->state = CtxState::kRunning;  // Not a threshold for itself.
      RecomputeCaches();
      ResumeCtx(ctx);
    }
    if (progress_epoch_ != epoch) {
      swept = false;
    }
  }
}

void World::ResumeCtx(Ctx* ctx) {
  ctx->state = CtxState::kRunning;
  ctx->cpu->parked_ = false;
  ctx->machine->active_ = ctx->cpu;
  running_ = ctx;
  Fiber::Switch(world_fiber_, *ctx->fiber);
  running_ = nullptr;
}

void World::YieldCurrent() {
  Ctx* ctx = running_;
  ctx->state = CtxState::kReady;
  Fiber::Switch(*ctx->fiber, world_fiber_);
}

void World::ParkCurrent() {
  if (!scheduling_ || running_ == nullptr) {
    std::fprintf(stderr, "xok: WaitForInterrupt on a world machine outside World::Run\n");
    std::abort();
  }
  Ctx* ctx = running_;
  ctx->state = CtxState::kParked;
  ctx->cpu->parked_ = true;
  Fiber::Switch(*ctx->fiber, world_fiber_);
}

void World::AddCtx(Machine* machine, uint32_t cpu, std::function<void()> body) {
  auto owned = std::make_unique<Ctx>();
  Ctx* ctx = owned.get();
  ctx->machine = machine;
  ctx->cpu = &machine->cpu(cpu);
  ctx->fiber = std::make_unique<Fiber>([this, ctx, body = std::move(body)] {
    body();
    ctx->state = CtxState::kDone;
    ++progress_epoch_;
    if (SiblingsDone(ctx->machine)) {
      // The last sibling to return readies the CPU-0 context joining them.
      for (const std::unique_ptr<Ctx>& other : ctxs_) {
        if (other->machine == ctx->machine && other->state == CtxState::kJoining) {
          other->state = CtxState::kReady;
        }
      }
    }
    for (;;) {
      Fiber::Switch(*ctx->fiber, world_fiber_);
    }
  });
  const auto key = [](const Ctx& c) {
    return std::pair(c.machine->world_index(), c.cpu->index());
  };
  auto at = std::ranges::find_if(
      ctxs_, [&](const std::unique_ptr<Ctx>& c) { return key(*c) > key(*ctx); });
  ctxs_.insert(at, std::move(owned));
}

bool World::SiblingsDone(const Machine* machine) const {
  return std::ranges::none_of(ctxs_, [machine](const std::unique_ptr<Ctx>& c) {
    return c->machine == machine && c->cpu->index() != 0 && c->state != CtxState::kDone;
  });
}

void World::RunCpus(Machine* machine, std::vector<std::function<void()>> bodies) {
  if (!scheduling_ || running_ == nullptr || running_->machine != machine) {
    std::fprintf(stderr, "xok: machine %s: RunCpus on a world machine outside its body\n",
                 machine->name());
    std::abort();
  }
  Ctx* self = running_;
  for (uint32_t i = 1; i < bodies.size(); ++i) {
    AddCtx(machine, i, std::move(bodies[i]));
  }
  ++progress_epoch_;
  RecomputeCaches();  // So CPU 0 yields to the new CPUs by local clock.
  bodies[0]();
  while (!SiblingsDone(machine)) {
    self->state = CtxState::kJoining;
    Fiber::Switch(*self->fiber, world_fiber_);
  }
  std::erase_if(ctxs_, [machine](const std::unique_ptr<Ctx>& c) {
    return c->machine == machine && c->cpu->index() != 0;
  });
  ++progress_epoch_;
}

void World::NoteEventPosted(const Cpu* cpu, uint64_t due) {
  ++progress_epoch_;
  if (due >= parked_min_due_) {
    return;  // Cannot lower the cache.
  }
  for (const std::unique_ptr<Ctx>& ctx : ctxs_) {
    if (ctx->cpu == cpu && ctx->state == CtxState::kParked) {
      parked_min_due_ = due;
      return;
    }
  }
}

void World::RecomputeCaches() {
  parked_min_due_ = kNever;
  ready_min_clock_ = kNever;
  for (const std::unique_ptr<Ctx>& ctx : ctxs_) {
    if (ctx->state == CtxState::kParked) {
      const uint64_t due = ctx->cpu->NextDueCycle();
      if (due < parked_min_due_) {
        parked_min_due_ = due;
      }
    } else if (ctx->state == CtxState::kReady) {
      const uint64_t now = ctx->cpu->clock().now();
      if (now < ready_min_clock_) {
        ready_min_clock_ = now;
      }
    }
  }
}

}  // namespace xok::hw
