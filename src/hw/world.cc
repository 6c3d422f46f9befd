#include "src/hw/world.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/hw/machine.h"
#include "src/hw/nic.h"

namespace xok::hw {

namespace {
// What a minimum-size frame pays once it leaves the sending controller:
// serialisation and the receiving controller's latency, 280 + 1000 cycles.
constexpr uint64_t kWireFlight = Nic::kMinFrameBytes * kWireCyclesPerByte + kNicControllerLatency;
// Every charge from a sender's clock to its frame landing on another
// machine: Nic::Transmit's copy of a minimum-size frame and the sending
// controller's latency, then the wire: 16 + 1000 + 1280 = 2296 cycles.
constexpr uint64_t kMinFrameFlight =
    kMemWordCopy * ((Nic::kMinFrameBytes + 3) / 4) + kNicControllerLatency + kWireFlight;
// How far past a machine's lowest key another machine may run (world.h).
// A ready context's key is its clock + 1, hence one less than the flight.
constexpr uint64_t kLookahead = kMinFrameFlight - 1;
constexpr uint64_t kSendingLookahead = kWireFlight - 1;
static_assert(kLookahead == 2295 && kSendingLookahead == 1279);
}  // namespace

World::World() = default;

World::~World() = default;

void World::Attach(Machine* machine) {
  machine->set_world_index(static_cast<uint32_t>(members_.size()));
  members_.emplace_back().machine = machine;
  for (uint32_t i = 0; i < machine->cpu_count(); ++i) {
    machine->cpu(i).yield_at_ = &yield_at_;
  }
}

World::Member& World::MemberOf(const Machine* machine) {
  return members_[machine->world_index()];
}

void World::Run(std::vector<std::function<void()>> bodies) {
  if (bodies.size() != members_.size()) {
    std::fprintf(stderr, "xok: World::Run needs one body per attached machine\n");
    std::abort();
  }
  for (size_t i = 0; i < members_.size(); ++i) {
    members_[i].ctxs.clear();
    members_[i].last = nullptr;
    AddCtx(members_[i].machine, 0, std::move(bodies[i]));
    members_[i].key = PickIn(members_[i]).key;
  }
  current_ = 0;
  horizon_ = HorizonFor(current_);
  scheduling_ = true;
  Schedule();
  scheduling_ = false;
  yield_at_ = kNever;
}

// Inlined: Dispatch runs it once per dispatch.
[[gnu::always_inline]] inline World::Pick World::PickIn(const Member& member) {
  // One pass: the strict pick, and the two lowest keys. The pick's key is
  // always the lowest, so the second is the lowest among the others.
  Ctx* ready = nullptr;
  uint64_t ready_clock = kNever;
  Ctx* parked = nullptr;
  uint64_t parked_due = kNever;
  uint64_t lowest = kNever;
  uint64_t next = kNever;
  for (const std::unique_ptr<Ctx>& ctx : member.ctxs) {
    uint64_t key;
    if (ctx->state == CtxState::kReady) {
      const uint64_t now = ctx->cpu->clock().now();
      if (ready == nullptr || now < ready_clock ||
          (now == ready_clock && ctx.get() == member.last)) {
        ready = ctx.get();
        ready_clock = now;
      }
      key = now + 1;
    } else if (ctx->state == CtxState::kParked) {
      key = ctx->cpu->NextDueCycle();
      if (key < parked_due) {
        parked = ctx.get();
        parked_due = key;
      }
    } else {
      continue;
    }
    if (key < lowest) {
      next = lowest;
      lowest = key;
    } else if (key < next) {
      next = key;
    }
  }
  if (parked != nullptr && parked_due <= ready_clock) {
    return {parked, parked_due, next};
  }
  if (ready != nullptr) {
    return {ready, ready_clock + 1, next};
  }
  return {nullptr, kNever, kNever};
}

World::Ctx* World::Dispatch() {
  for (;;) {
    Member& member = members_[current_];
    const Pick pick = PickIn(member);
    if (pick.key < horizon_) {
      yield_at_ = std::min(pick.next, horizon_);
      if (pick.ctx->state == CtxState::kParked) {
        pick.ctx->cpu->clock().AdvanceTo(pick.key);
      }
      member.last = pick.ctx;
      return pick.ctx;
    }
    member.key = pick.key;
    size_t lowest = 0;
    for (size_t i = 1; i < members_.size(); ++i) {
      if (members_[i].key < members_[lowest].key) {
        lowest = i;
      }
    }
    if (members_[lowest].key == kNever) {
      return nullptr;
    }
    current_ = lowest;
    horizon_ = HorizonFor(current_);
  }
}

void World::Schedule() {
  // When no machine has a key — nothing ready, nothing due — sweep every
  // parked context with a spurious wake so its loop can observe a global
  // exit condition; if a full sweep changes nothing the world quiesces,
  // returning with any still-parked bodies abandoned.
  bool swept = false;
  for (;;) {
    if (Ctx* next = Dispatch()) {
      swept = false;
      ResumeCtx(next);
      continue;
    }
    std::vector<Ctx*> sweep;
    for (const Member& m : members_) {
      for (const std::unique_ptr<Ctx>& ctx : m.ctxs) {
        if (ctx->state == CtxState::kParked) {
          sweep.push_back(ctx.get());
        }
      }
    }
    if (sweep.empty()) {
      return;  // Every body returned.
    }
    if (swept) {
      return;  // Swept with no progress: quiescent.
    }
    swept = true;
    const uint64_t epoch = progress_epoch_;
    // A CPU 0 leaving RunCpus erases its siblings' contexts, but only once
    // a dispatch resumes it, and a sweep dispatches nothing: the contexts it
    // wakes return here (Leave), so the snapshot stays valid through it.
    sweeping_ = true;
    for (Ctx* ctx : sweep) {
      ctx->state = CtxState::kRunning;  // Not a threshold for itself.
      SetYieldAt(*ctx);
      MemberOf(ctx->machine).last = ctx;
      ResumeCtx(ctx);
    }
    sweeping_ = false;
    for (Member& m : members_) {
      m.key = PickIn(m).key;
    }
    horizon_ = HorizonFor(current_);
    if (progress_epoch_ != epoch) {
      swept = false;
    }
  }
}

uint64_t World::ReachOf(const Machine& machine, uint64_t key) {
  if (key == kNever) {
    return kNever;
  }
  const bool sending = machine.nic_ != nullptr && machine.nic_->sending_ > 0;
  return key + (sending ? kSendingLookahead : kLookahead);
}

uint64_t World::HorizonFor(size_t current) const {
  uint64_t horizon = kNever;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i != current) {
      horizon = std::min(horizon, ReachOf(*members_[i].machine, members_[i].key));
    }
  }
  return horizon;
}

void World::SetYieldAt(const Ctx& ctx) {
  yield_at_ = kNever;
  for (const Member& m : members_) {
    const uint64_t key = PickIn(m).key;  // `ctx`, running, has no key.
    if (m.machine == ctx.machine) {
      yield_at_ = std::min(yield_at_, key);
    } else {
      yield_at_ = std::min(yield_at_, ReachOf(*m.machine, key));
    }
  }
}

void World::Enter(Ctx* ctx) {
  ctx->state = CtxState::kRunning;
  ctx->cpu->parked_ = false;
  ctx->machine->active_ = ctx->cpu;
  running_ = ctx;
}

void World::ResumeCtx(Ctx* ctx) {
  Enter(ctx);
  Fiber::Switch(world_fiber_, *ctx->fiber);
  running_ = nullptr;
}

void World::Leave(Ctx* self) {
  Ctx* next = sweeping_ ? nullptr : Dispatch();
  if (next == nullptr) {
    Fiber::Switch(*self->fiber, world_fiber_);
    return;
  }
  Enter(next);
  if (next != self) {
    Fiber::Switch(*self->fiber, *next->fiber);
  }
}

void World::YieldCurrent() {
  Ctx* ctx = running_;
  ctx->state = CtxState::kReady;
  Leave(ctx);
}

void World::ParkCurrent() {
  if (!scheduling_ || running_ == nullptr) {
    std::fprintf(stderr, "xok: WaitForInterrupt on a world machine outside World::Run\n");
    std::abort();
  }
  Ctx* ctx = running_;
  ctx->state = CtxState::kParked;
  ctx->cpu->parked_ = true;
  Leave(ctx);
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
    Member& member = MemberOf(ctx->machine);
    if (SiblingsDone(member)) {
      // The last sibling to return readies the CPU-0 context joining them.
      for (const std::unique_ptr<Ctx>& other : member.ctxs) {
        if (other->state == CtxState::kJoining) {
          other->state = CtxState::kReady;
        }
      }
    }
    for (;;) {
      Fiber::Switch(*ctx->fiber, world_fiber_);
    }
  });
  std::vector<std::unique_ptr<Ctx>>& ctxs = MemberOf(machine).ctxs;
  auto at = std::ranges::find_if(
      ctxs, [cpu](const std::unique_ptr<Ctx>& c) { return c->cpu->index() > cpu; });
  ctxs.insert(at, std::move(owned));
}

bool World::SiblingsDone(const Member& member) {
  return std::ranges::none_of(member.ctxs, [](const std::unique_ptr<Ctx>& c) {
    return c->cpu->index() != 0 && c->state != CtxState::kDone;
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
  // So CPU 0, running and so keyless, yields to the new CPUs by local clock.
  yield_at_ = std::min(yield_at_, PickIn(MemberOf(machine)).key);
  bodies[0]();
  while (!SiblingsDone(MemberOf(machine))) {
    self->state = CtxState::kJoining;
    Leave(self);
  }
  Member& member = MemberOf(machine);
  std::erase_if(member.ctxs,
                [](const std::unique_ptr<Ctx>& c) { return c->cpu->index() != 0; });
  member.last = self;
  ++progress_epoch_;
}

void World::NoteEventPosted(const Cpu* cpu, uint64_t due) {
  ++progress_epoch_;
  if (!scheduling_ || !cpu->parked_) {
    return;  // Only a parked context's key is its next due cycle.
  }
  if (running_ != nullptr && running_->machine == &cpu->machine_) {
    yield_at_ = std::min(yield_at_, due);
    return;
  }
  Member& member = MemberOf(&cpu->machine_);
  member.key = std::min(member.key, due);
  const uint64_t reach = ReachOf(cpu->machine_, due);
  horizon_ = std::min(horizon_, reach);
  yield_at_ = std::min(yield_at_, reach);
}

}  // namespace xok::hw
