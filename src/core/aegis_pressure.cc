#include "src/core/aegis.h"

#include <algorithm>

namespace xok::aegis {

using hw::Instr;

uint32_t Aegis::RevokeSlices(EnvId victim_id, uint32_t slots, uint32_t min_keep) {
  Env* victim = FindEnv(victim_id);
  if (victim == nullptr || victim->state == EnvState::kExited) {
    return 0;
  }
  uint32_t removed = 0;
  // Highest-index CPUs first: birth slices land on the least-loaded (often
  // lowest) CPU, so pressure peels an env back toward its home processor
  // before touching its last slots there.
  for (uint32_t k = machine_.cpu_count(); k-- > 0 && removed < slots;) {
    CpuSched& cpu = cpu_[k];
    bool still_holds = false;
    machine_.Charge(Instr(2) * cpu.slice_vector.size());
    for (uint32_t slot = 0; slot < cpu.slice_vector.size(); ++slot) {
      if (cpu.slice_vector[slot] != victim_id) {
        continue;
      }
      if (removed < slots && victim->slice_slots > min_keep) {
        cpu.SetSlot(slot, kNoEnv);
        --victim->slice_slots;
        ++removed;
      } else {
        still_holds = true;
      }
    }
    if (!still_holds) {
      victim->slot_mask &= ~(1ULL << k);
    }
  }
  if (removed > 0) {
    victim->counters.slices_revoked += removed;
    Trace(xtrace::Event::kSliceRevoke, victim_id, removed, victim->slice_slots);
    if (victim->slot_mask == 0 && victim->state == EnvState::kRunnable &&
        victim->on_cpu == kNoCpu) {
      NudgeCpusFor(*victim);  // Slot-less, it may now land on any CPU.
    }
  }
  return removed;
}

uint32_t Aegis::ReclaimFilters(EnvId victim_id, uint32_t filters) {
  Env* victim = FindEnv(victim_id);
  if (victim == nullptr || victim->state == EnvState::kExited) {
    return 0;
  }
  uint32_t reclaimed = 0;
  for (dpf::FilterId id = 0; id < bindings_.size() && reclaimed < filters; ++id) {
    if (!bindings_[id].live || bindings_[id].owner != victim_id) {
      continue;
    }
    machine_.Charge(Instr(10));
    (void)ReleaseFilter(id);
    Trace(xtrace::Event::kFilterReclaim, victim_id, id);
    ++reclaimed;
  }
  if (reclaimed > 0) {
    // Visible revocation must be visible: a victim blocked waiting on a
    // now-severed ring would otherwise sleep forever — no packet will
    // ever arrive to wake it. The wake lets its receive path observe the
    // dead binding and run its repair protocol.
    WakeEnvInternal(*victim);
  }
  return reclaimed;
}

uint32_t Aegis::ReclaimExtents(EnvId victim_id, uint32_t extents, uint32_t min_keep) {
  Env* victim = FindEnv(victim_id);
  if (victim == nullptr || victim->state == EnvState::kExited) {
    return 0;
  }
  const uint32_t live = ExtentsOf(victim_id);
  uint32_t reclaimed = 0;
  for (uint32_t id = 0; id < extents_.size() && reclaimed < extents; ++id) {
    const DiskExtent& extent = extents_[id];
    if (!extent.live || extent.owner != victim_id || live - reclaimed <= min_keep) {
      continue;
    }
    machine_.Charge(Instr(4));
    ReleaseExtent(id);
    Trace(xtrace::Event::kExtentReclaim, victim_id, id);
    ++reclaimed;
  }
  return reclaimed;
}

// --- Resource pressure (deterministic revocation campaigns) ---

void Aegis::InstallPressurePlan(const PressurePlan& plan) {
  pressure_ = std::make_unique<PressureEngine>(plan);
  const uint64_t now = machine_.clock().now();
  // One-shot events carry a 1-based cookie naming the plan entry.
  for (size_t i = 0; i < plan.events.size(); ++i) {
    const uint64_t at = plan.events[i].at_cycle;
    priv_.ScheduleEvent(at > now ? at - now : 0, hw::InterruptSource::kPressure,
                        static_cast<uint64_t>(i) + 1);
  }
  // The storm is self-rescheduling: cookie 0 means "burst, then re-arm".
  if (plan.storm_end > plan.storm_start) {
    priv_.ScheduleEvent(plan.storm_start > now ? plan.storm_start - now : 0,
                        hw::InterruptSource::kPressure, 0);
  }
}

uint32_t Aegis::PressureHeadroom(const Env& env, PressureKind kind) const {
  if (env.state == EnvState::kExited || pressure_ == nullptr) {
    return 0;
  }
  const ReserveFloor& floor = pressure_->plan().floor;
  switch (kind) {
    case PressureKind::kRevokePages:
      return env.pages_owned > floor.pages ? env.pages_owned - floor.pages : 0;
    case PressureKind::kRevokeSlices:
      return env.slice_slots > floor.slices ? env.slice_slots - floor.slices : 0;
    case PressureKind::kReclaimFilters:
      return FiltersOf(env.id);  // No floor: packets are never a survival resource.
    case PressureKind::kReclaimExtents: {
      const uint32_t owned = ExtentsOf(env.id);
      return owned > floor.extents ? owned - floor.extents : 0;
    }
  }
  return 0;
}

Env* Aegis::PickPressureVictim(PressureKind kind) {
  // Richest eligible env (most headroom above its floor); seeded draw
  // breaks ties so campaigns are deterministic per plan seed.
  uint32_t best = 0;
  for (const auto& env : envs_) {
    best = std::max(best, PressureHeadroom(*env, kind));
  }
  if (best == 0) {
    return nullptr;
  }
  std::vector<Env*> candidates;
  for (const auto& env : envs_) {
    if (PressureHeadroom(*env, kind) == best) {
      candidates.push_back(env.get());
    }
  }
  return candidates[pressure_->NextDraw(candidates.size())];
}

void Aegis::ApplyPressure(PressureKind kind, EnvId victim_id, uint32_t amount) {
  PressureStats& stats = pressure_->stats();
  ++stats.revocations;
  Env* victim = victim_id == kAnyEnv ? PickPressureVictim(kind) : FindEnv(victim_id);
  if (victim == nullptr || victim->state == EnvState::kExited) {
    ++stats.floor_clamps;  // Nobody above the floor (or victim gone).
    return;
  }
  const uint32_t headroom = PressureHeadroom(*victim, kind);
  const uint32_t applied = std::min(amount, headroom);
  if (applied < amount) {
    ++stats.floor_clamps;
  }
  Trace(xtrace::Event::kPressureTick, static_cast<uint32_t>(kind), victim->id,
        amount, applied);
  if (applied == 0) {
    return;
  }
  const ReserveFloor& floor = pressure_->plan().floor;
  switch (kind) {
    case PressureKind::kRevokePages:
      stats.pages_requested += applied;
      (void)RevokePages(victim->id, applied);
      break;
    case PressureKind::kRevokeSlices:
      stats.slices_revoked += RevokeSlices(victim->id, applied, floor.slices);
      break;
    case PressureKind::kReclaimFilters:
      stats.filters_reclaimed += ReclaimFilters(victim->id, applied);
      break;
    case PressureKind::kReclaimExtents:
      stats.extents_reclaimed += ReclaimExtents(victim->id, applied, floor.extents);
      break;
  }
  MaybeAuditAfterFault();
}

void Aegis::HandlePressure(uint64_t cookie) {
  if (pressure_ == nullptr || powered_off_) {
    return;  // Spurious (injected) or post-mortem pressure tick.
  }
  const PressurePlan& plan = pressure_->plan();
  if (cookie != 0) {
    if (cookie > plan.events.size()) {
      return;  // Spurious cookie.
    }
    const PressureEvent& event = plan.events[cookie - 1];
    ApplyPressure(event.kind, event.victim, event.amount);
    return;
  }
  // Storm burst: each armed channel fires once against a seeded victim.
  ++pressure_->stats().bursts;
  if (plan.storm_pages > 0) {
    ApplyPressure(PressureKind::kRevokePages, kAnyEnv, plan.storm_pages);
  }
  if (plan.storm_slices > 0) {
    ApplyPressure(PressureKind::kRevokeSlices, kAnyEnv, plan.storm_slices);
  }
  if (plan.storm_filters > 0) {
    ApplyPressure(PressureKind::kReclaimFilters, kAnyEnv, plan.storm_filters);
  }
  if (plan.storm_extents > 0) {
    ApplyPressure(PressureKind::kReclaimExtents, kAnyEnv, plan.storm_extents);
  }
  const uint64_t now = machine_.clock().now();
  if (now + plan.storm_period <= plan.storm_end) {
    priv_.ScheduleEvent(plan.storm_period, hw::InterruptSource::kPressure, 0);
  }
}

}  // namespace xok::aegis
