#include "src/core/aegis.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace xok::aegis {

using cap::Capability;
using hw::Instr;

namespace {
// The kernel's capability MAC key.
constexpr uint64_t kCapKey0 = 0xae915ULL;
constexpr uint64_t kCapKey1 = 0x50351995ULL;  // SOSP 1995.
}  // namespace

Aegis::Aegis(hw::Machine& machine, const Config& config)
    : machine_(machine),
      config_(config),
      priv_(machine.InstallKernel(this)),
      authority_(cap::SipKey{kCapKey0, kCapKey1}),
      cpu_(machine.cpu_count()),
      pages_(machine.mem().page_count()),
      stlb_(machine.mem().page_count()) {
  for (CpuSched& cpu : cpu_) {
    cpu.slice_vector.assign(config.slice_count, kNoEnv);
    cpu.occupied.assign((config.slice_count + 63) / 64, 0);
  }
}

Aegis::Aegis(hw::Machine& machine) : Aegis(machine, Config{}) {}

Aegis::~Aegis() = default;

// --- xtrace hooks ---

void Aegis::TraceSyscallExit(xtrace::Sys number, uint64_t latency) {
  Trace(xtrace::Event::kSyscallExit, static_cast<uint32_t>(number),
        static_cast<uint32_t>(latency), static_cast<uint32_t>(latency >> 32));
  // The only simulated cost of an armed ring on the syscall path: the
  // record stores sink into the write buffer, the head publish does not.
  machine_.Charge(kTraceArmedSyscall);
}

void Aegis::TraceAppend(xtrace::Event type, uint32_t a0, uint32_t a1, uint32_t a2,
                        uint32_t a3) {
  TraceState& trace = *trace_;
  // Cannot fail: geometry was validated at bind time and is re-derived
  // from the trusted binding record, never from the shared header.
  xtrace::TraceRingView view = *xtrace::TraceRingView::Attach(RegionBytes(trace.region),
                                                              trace.slots);
  // Drop-oldest: the kernel never stalls on a slow reader. The tail is
  // application memory and untrusted — a scribbled value at worst
  // misreports the owner's own drop counter.
  if (trace.head - view.tail() >= trace.slots) {
    ++trace.dropped;
    view.set_dropped(trace.dropped);
  }
  xtrace::Record record;
  record.cycle = machine_.clock().now();
  record.seq = trace.head;
  record.type = static_cast<uint16_t>(type);
  record.env = static_cast<uint16_t>(cur().current);
  record.arg0 = a0;
  record.arg1 = a1;
  record.arg2 = a2;
  record.arg3 = a3;
  view.Write(trace.head, record);
  ++trace.head;
  view.set_head(trace.head);
}

void Aegis::SeverTraceRing() { trace_.reset(); }

Env& Aegis::CurrentEnv() {
  Env* env = FindEnv(cur().current);
  if (env == nullptr) {
    std::fprintf(stderr, "aegis: syscall outside any environment\n");
    std::abort();
  }
  return *env;
}

// --- Environment lifecycle ---

Result<EnvGrant> Aegis::CreateEnv(EnvSpec spec) {
  if (envs_.size() >= config_.max_envs) {
    return Status::kErrNoResources;
  }
  if (!spec.entry) {
    return Status::kErrInvalidArgs;
  }
  // Placement: every birth slice lands on the least-loaded CPU the spec's
  // mask admits (lowest index breaks ties); SysAllocSlice spans others
  // later. On a single-CPU machine this is always CPU 0.
  const uint32_t ncpus = machine_.cpu_count();
  const uint64_t machine_mask = ncpus >= 64 ? ~0ULL : (1ULL << ncpus) - 1;
  const uint64_t cpu_mask = spec.cpu_mask & machine_mask;
  if (cpu_mask == 0) {
    return Status::kErrInvalidArgs;
  }
  const uint32_t home = PickCpu(cpu_mask);
  // Allocate time-slice vector positions (each CPU is a linear vector of
  // slices; an environment without a slice never runs).
  const CpuSched& home_cpu = cpu_[home];
  if (home_cpu.slice_vector.size() - home_cpu.OccupiedCount() < spec.slices) {
    return Status::kErrNoResources;
  }

  const EnvId id = static_cast<EnvId>(envs_.size() + 1);
  auto env = std::make_unique<Env>();
  env->id = id;
  env->asid = static_cast<hw::Asid>(id);
  env->handlers = std::move(spec.handlers);
  env->self_cap = authority_.Mint(EnvResource(id), cap::kAllRights, 0);
  auto entry = std::move(spec.entry);
  env->fiber = std::make_unique<hw::Fiber>([this, self = env.get(), entry = std::move(entry)]() {
    while (!BeginTurn(*self)) {
      HandOff(*self);
    }
    entry();
    SysExit();  // Entries that "return" exit cleanly.
  });

  env->cpu_mask = cpu_mask;
  env->last_cpu = home;
  for (uint32_t granted = 0; granted < spec.slices; ++granted) {
    (void)GrantSlice(*env, home);  // Cannot fail: capacity checked above.
  }

  const EnvGrant grant{id, env->self_cap};
  envs_.push_back(std::move(env));
  ++live_envs_;
  Trace(xtrace::Event::kEnvBirth, id);
  if (running_) {
    // Mid-run birth (e.g. a supervisor respawning a child): the home CPU
    // may be parked with an empty event queue, and a parked CPU only
    // rescans its slice vector when something wakes it.
    NudgeCpusFor(*envs_.back());
  }
  return grant;
}

void Aegis::SysExit() {
  Env& env = CurrentEnv();
  // Manual syscall accounting: SysExit never returns, so the RAII scope
  // other syscalls use would never run its exit half.
  ++env.counters.syscalls[static_cast<uint32_t>(xtrace::Sys::kExit)];
  Trace(xtrace::Event::kSyscallEnter, static_cast<uint32_t>(xtrace::Sys::kExit));
  Trace(xtrace::Event::kEnvDeath, env.id, /*killed=*/0);
  env.state = EnvState::kExited;
  --live_envs_;
  // Clean exit releases the CPU and the addressing context but NOT pages
  // or disk extents: their ownership (and the capabilities minted from it)
  // deliberately outlives the environment, so the common "allocate a
  // shared buffer, hand the capability to a peer, exit" pattern works.
  // Forced termination (KillEnv) reclaims everything instead.
  ReleaseSlots(env);
  env.mailbox.clear();
  env.wake_pending = false;
  FlushAsid(env.asid);
  LeaveCpu();
  std::fprintf(stderr, "aegis: exited environment resumed\n");
  std::abort();
}

// Crash-safe teardown (forced exit only): every resource class the
// environment holds is reclaimed here, in dependency order — bindings
// and waiters first, then the frames, each released (ReleasePage) only
// after the DMA and cached bindings naming it are gone.
void Aegis::TearDownEnv(Env& env) {
  // Emit the death record *before* reclamation: if the observer is a peer
  // its ring is untouched; if the victim owns the ring itself, the record
  // still lands in RAM (readable post-mortem) before the binding is
  // severed below.
  Trace(xtrace::Event::kEnvDeath, env.id, /*killed=*/1);
  // The reaper runs with interrupts masked: between marking the env dead
  // and finishing the resource sweep the ledger is transiently
  // inconsistent, and an interrupt handler landing on one of the sweep's
  // charges (a disk-fault completion or pressure burst, both of which
  // audit) would observe — and flag — the half-torn state. Events queue
  // while masked and deliver at the first charge after restore.
  const bool irq_state = priv_.interrupts_enabled();
  priv_.SetInterruptsEnabled(false);
  env.state = EnvState::kExited;
  env.killed = true;
  --live_envs_;

  // CPU: slice-vector slots on every processor and any donation aimed at
  // the corpse.
  for (const CpuSched& cpu : cpu_) {
    machine_.Charge(Instr(2) * cpu.slice_vector.size());
  }
  ReleaseSlots(env);
  env.kill_pending = false;
  env.on_cpu = kNoCpu;

  // Pending PCTs and the repossession vector die with the environment.
  env.mailbox.clear();
  env.repossessed.clear();
  env.wake_pending = false;

  // Packet-filter bindings: the classifier must stop steering frames at a
  // dead owner, and the pinned ASH regions are released with the pages.
  for (dpf::FilterId id = 0; id < bindings_.size(); ++id) {
    if (bindings_[id].live && bindings_[id].owner == env.id) {
      // The ring region's pages return to the free pool below; the binding
      // must stop naming them first so no late frame lands in a reclaimed
      // (and possibly reallocated) frame.
      machine_.Charge(Instr(10));
      (void)ReleaseFilter(id);
    }
  }

  // Disk: drop the victim's waiter registrations. In-flight DMA into its
  // frames is cancelled frame by frame as the page sweep below releases
  // them (FlushPageBindings); barriers have no frame, so only this sweep
  // forgets them.
  for (auto it = disk_waiters_.begin(); it != disk_waiters_.end();) {
    it = (it->second == env.id) ? disk_waiters_.erase(it) : std::next(it);
  }
  env.disk_pending = false;

  // Disk extents: epoch bump kills outstanding extent capabilities.
  for (uint32_t id = 0; id < extents_.size(); ++id) {
    if (extents_[id].live && extents_[id].owner == env.id) {
      machine_.Charge(Instr(4));
      ReleaseExtent(id);
    }
  }

  // Physical pages: the abort-protocol machinery (break bindings by
  // force), minus the repossession vector — there is no one left to read it.
  for (hw::PageId p = 0; p < pages_.size(); ++p) {
    if (pages_[p].owner == env.id) {
      ReleasePage(p);
    }
  }
  env.pages_owned = 0;

  // Trace ring: FlushPageBindings severed it if it spanned a reclaimed
  // frame; a ring bound by the victim but somehow spanning no reclaimed
  // frame must die here too — nobody is left to read it.
  if (trace_ != nullptr && trace_->owner == env.id) {
    SeverTraceRing();
  }

  // Addressing context: no stale translation may outlive the environment,
  // on this CPU or any other.
  FlushAsid(env.asid);

  // Framebuffer ownership tags.
  if (framebuffer_ != nullptr) {
    framebuffer_->ClearOwner(env.id);
  }

  priv_.SetInterruptsEnabled(irq_state);
}

void Aegis::NotifyEnvDeath(const Env& dead) {
  // Forced deaths are broadcast: a peer blocked on the corpse (pipe wait,
  // PCT reply, disk completion that was cancelled) re-checks its condition
  // and observes the death via SysEnvAlive. Runnable peers get the
  // wake-pending latch instead — one may already have concluded "peer
  // alive, ring empty" and be on its way into SysBlock, which must then
  // return immediately rather than sleep through the only notification.
  // Clean exits stay silent — a well-behaved environment finishes its
  // protocols before exiting, and waking sleepers for every exit would
  // break directed-wake semantics.
  for (const auto& other : envs_) {
    if (other->id != dead.id && other->state != EnvState::kExited) {
      WakeEnvInternal(*other);
    }
  }
}

void Aegis::Reap(Env& env) {
  TearDownEnv(env);
  ++envs_killed_;
  NotifyEnvDeath(env);
}

Status Aegis::KillEnv(EnvId victim_id) {
  Env* victim = FindEnv(victim_id);
  if (victim == nullptr || victim->state == EnvState::kExited) {
    return Status::kErrNotFound;
  }
  if (cur().in_pct) {
    // PCT atomicity: the transfer cannot be diverted between initiation
    // and entry; the kill lands when the outermost transfer returns.
    deferred_kills_.push_back(victim_id);
    return Status::kOk;
  }
  for (const CpuSched& cpu : cpu_) {
    if (&cpu != &cur() && cpu.in_pct && cpu.current == victim_id) {
      // The victim is the callee of a transfer in flight on another CPU;
      // that CPU runs the deferred kill at its outer return.
      deferred_kills_.push_back(victim_id);
      return Status::kOk;
    }
  }
  if (victim->on_cpu != kNoCpu && victim->on_cpu != machine_.current_cpu()) {
    // The victim is executing on another processor: this CPU cannot tear
    // down a fiber that is live over there. Send a reap IPI; the target
    // kills the victim from its own context at the next charge boundary,
    // exactly as a locally delivered fault interrupt would.
    if (!victim->kill_pending) {
      const uint32_t target = victim->on_cpu;
      victim->kill_pending = true;
      machine_.Charge(kIpiCost);
      Trace(xtrace::Event::kIpi, target, victim_id);
      Env* initiator = FindEnv(cur().current);
      if (initiator != nullptr) {
        ++initiator->counters.ipis_sent;
      }
      ++remote_kills_sent_;
      priv_.SendIpi(target, victim_id);
    }
    return Status::kOk;
  }
  const bool suicide = (victim_id == cur().current);
  Reap(*victim);
  MaybeAuditAfterFault();
  if (suicide) {
    // Killed from its own context (fault interrupt at a charge boundary):
    // the fiber is abandoned, never to be resumed.
    LeaveCpu();
    std::fprintf(stderr, "aegis: killed environment resumed\n");
    std::abort();
  }
  return Status::kOk;
}

void Aegis::ProcessDeferredKills() {
  if (deferred_kills_.empty()) {
    return;
  }
  std::vector<EnvId> kills = std::move(deferred_kills_);
  deferred_kills_.clear();
  bool suicide = false;
  for (EnvId id : kills) {
    if (id == cur().current) {
      suicide = true;
      continue;
    }
    Env* victim = FindEnv(id);
    if (victim == nullptr || victim->state == EnvState::kExited) {
      continue;
    }
    if (victim->on_cpu != kNoCpu && victim->on_cpu != machine_.current_cpu()) {
      (void)KillEnv(id);  // Re-route: the reap belongs to the CPU running it.
      continue;
    }
    Reap(*victim);
  }
  MaybeAuditAfterFault();
  if (suicide) {
    Reap(CurrentEnv());
    MaybeAuditAfterFault();
    LeaveCpu();
    std::fprintf(stderr, "aegis: killed environment resumed\n");
    std::abort();
  }
}

// --- Fiber plumbing ---

void Aegis::LeaveCpu() {
  Env& env = CurrentEnv();
  // Interrupt masking follows the context: save this context's trap depth
  // and run the dispatch unmasked. BeginTurn restores it.
  env.saved_trap_depth = priv_.SwapTrapDepth(0);
  cur().env_fiber_active = false;
  do {
    HandOff(env);
  } while (!BeginTurn(env));
}

void Aegis::HandOff(Env& env) {
  const uint32_t cpu_index = machine_.current_cpu();
  CpuSched& cpu = cpu_[cpu_index];
  Env* next = nullptr;
  if (OwesNudge(env)) {
    cpu.release = &env;  // The IPIs charge: release on the kernel fiber.
  } else {
    EndTurn(env);
    if (AnyLive() && !powered_off_) {
      const Pick pick = PickNext(cpu_index);
      cpu.picked_nothing = pick.env == nullptr;
      if (pick.env != nullptr) {
        Claim(pick, cpu_index);
        next = pick.env;
      }
    }
  }
  if (next == nullptr) {
    hw::Fiber::Switch(*env.fiber, cpu.kernel_fiber);
  } else if (next != &env) {
    hw::Fiber::Switch(*env.fiber, *next->fiber);
  }
}

void Aegis::Claim(const Pick& pick, uint32_t cpu_index) {
  pick.env->on_cpu = cpu_index;  // Before the first charge: no sibling may
                                 // pick this env while its turn is set up.
  cpu_[cpu_index].donated = pick.donated;
}

bool Aegis::BeginTurn(Env& env) {
  const uint32_t cpu_index = machine_.current_cpu();
  CpuSched& cpu = cpu_[cpu_index];
  const bool donated = cpu.donated;
  // Read before the mailbox: a handler that outlasts a donated slice ends
  // this turn from inside the timer interrupt, and that LeaveCpu saves
  // the interrupt's depth over this context's.
  const int trap_depth = env.saved_trap_depth;
  priv_.SetAsid(env.asid);
  if (!donated || !priv_.slice_armed()) {
    priv_.SetSliceDeadline(machine_.clock().now() + config_.slice_cycles);
  }
  ++env.slices_run;
  cpu.current = env.id;
  if (cpu_index != env.last_cpu) {
    ++env.counters.migrations;
    Trace(xtrace::Event::kMigration, env.last_cpu, cpu_index);
    env.last_cpu = cpu_index;
  }
  Trace(xtrace::Event::kSliceSwitch, donated ? 1u : 0u);
  cpu.turn_start = machine_.clock().now();
  DrainMailbox(env);
  if (env.state != EnvState::kRunnable || powered_off_) {
    return false;
  }
  priv_.SwapTrapDepth(trap_depth);
  cpu.env_fiber_active = true;
  return true;
}

void Aegis::EndTurn(Env& env) {
  CpuSched& cpu = cur();
  env.counters.cycles_on_cpu += machine_.clock().now() - cpu.turn_start;
  env.on_cpu = kNoCpu;
  cpu.current = kNoEnv;
}

void Aegis::DrainMailbox(Env& env) {
  while (!env.mailbox.empty() && env.state != EnvState::kExited) {
    const PctArgs args = env.mailbox.front();
    env.mailbox.pop_front();
    machine_.Charge(kPctOneWay);
    if (env.handlers.pct_async) {
      env.handlers.pct_async(args);
    }
  }
}

void Aegis::WakeEnvInternal(Env& env) {
  if (env.state == EnvState::kBlocked) {
    env.state = EnvState::kRunnable;
    NudgeCpusFor(env);
  } else if (env.state == EnvState::kRunnable) {
    env.wake_pending = true;
  }
}

void Aegis::NudgeCpusFor(const Env& env) {
  if (machine_.cpu_count() <= 1) {
    return;  // The one CPU is the caller; its loop rescans on its own.
  }
  for (uint32_t k = 0; k < machine_.cpu_count(); ++k) {
    if (NudgeTarget(env, k)) {
      Trace(xtrace::Event::kIpi, k, 0);
      priv_.SendIpi(k, 0);  // Payload 0: reschedule; waking alone suffices.
    }
  }
}

bool Aegis::NudgeTarget(const Env& env, uint32_t cpu_index) const {
  // An env with no slots yet can be picked up by any CPU's idle fallback.
  const uint64_t mask = env.slot_mask != 0 ? env.slot_mask : ~0ULL;
  return (mask & (1ULL << cpu_index)) != 0 && cpu_index != machine_.current_cpu() &&
         machine_.CpuParked(cpu_index);
}

bool Aegis::OwesNudge(const Env& env) const {
  if (env.state != EnvState::kRunnable || env.kill_pending || machine_.cpu_count() <= 1) {
    return false;
  }
  for (uint32_t k = 0; k < machine_.cpu_count(); ++k) {
    if (NudgeTarget(env, k)) {
      return true;
    }
  }
  return false;
}

// --- Scheduler (paper §5.1.1) ---

bool Aegis::AnyLive() const { return live_envs_ > 0; }

bool Aegis::RunnableOn(const Env& env, uint32_t cpu_index) const {
  return env.state == EnvState::kRunnable && env.on_cpu == kNoCpu && !env.kill_pending &&
         (machine_.cpu_count() == 1 || env.slot_mask == 0 ||
          (env.slot_mask & (1ULL << cpu_index)) != 0);
}

Aegis::Pick Aegis::PickNext(uint32_t cpu_index) {
  CpuSched& cpu = cpu_[cpu_index];
  if (cpu.yield_hint != kNoEnv) {
    Env* target = FindEnv(cpu.yield_hint);
    cpu.yield_hint = kNoEnv;
    if (target != nullptr && target->state == EnvState::kRunnable &&
        target->on_cpu == kNoCpu && !target->kill_pending) {
      return {target, /*donated=*/true};
    }
  }
  if (Env* env = FindEnv(NextRunnable(cpu_index))) {
    return {env, /*donated=*/false};
  }
  // Excess-time penalties only bite under contention: if every runnable
  // environment was skipped for penalties this pass, run one anyway rather
  // than idling the processor. A CPU prefers envs holding one of its
  // slots; an env with no slots anywhere may land on any processor.
  const auto it = std::find_if(envs_.begin(), envs_.end(),
                               [&](const auto& env) { return RunnableOn(*env, cpu_index); });
  return {it != envs_.end() ? it->get() : nullptr, /*donated=*/false};
}

EnvId Aegis::NextRunnable(uint32_t cpu_index) {
  CpuSched& cpu = cpu_[cpu_index];
  const uint32_t n = static_cast<uint32_t>(cpu.slice_vector.size());
  const uint32_t start = cpu.slice_cursor;  // In [0, n]: one past the last pick.
  // Occupied slots in cyclic order from the cursor: [start, n), then [0, start).
  for (const auto& [first, end] : {std::pair{start, n}, std::pair{0u, start}}) {
    for (uint32_t pos = cpu.NextOccupied(first); pos < end; pos = cpu.NextOccupied(pos + 1)) {
      Env* env = FindEnv(cpu.slice_vector[pos]);
      if (env == nullptr || !RunnableOn(*env, cpu_index)) {
        continue;
      }
      if (env->excess_penalty > 0) {
        // Pay for excess time consumed in a past epilogue by forfeiting
        // this slice.
        --env->excess_penalty;
        continue;
      }
      cpu.slice_cursor = pos + 1;
      return env->id;
    }
  }
  return kNoEnv;
}

void Aegis::CpuSched::SetSlot(uint32_t slot, EnvId owner) {
  slice_vector[slot] = owner;
  const uint64_t bit = 1ULL << (slot % 64);
  if (owner == kNoEnv) {
    occupied[slot / 64] &= ~bit;
  } else {
    occupied[slot / 64] |= bit;
  }
}

uint32_t Aegis::CpuSched::NextOccupied(uint32_t from) const {
  const uint32_t n = static_cast<uint32_t>(slice_vector.size());
  if (from >= n) {
    return n;
  }
  uint32_t word = from / 64;
  uint64_t bits = occupied[word] & (~0ULL << (from % 64));
  while (bits == 0) {
    if (++word == occupied.size()) {
      return n;
    }
    bits = occupied[word];
  }
  return word * 64 + static_cast<uint32_t>(std::countr_zero(bits));
}

uint32_t Aegis::CpuSched::OccupiedCount() const {
  uint32_t count = 0;
  for (uint64_t word : occupied) {
    count += static_cast<uint32_t>(std::popcount(word));
  }
  return count;
}

uint32_t Aegis::PickCpu(uint64_t mask) const {
  uint32_t best = kNoCpu;
  uint32_t best_load = 0;
  for (uint32_t k = 0; k < machine_.cpu_count() && k < 64; ++k) {
    if ((mask & (1ULL << k)) == 0) {
      continue;
    }
    const uint32_t load = cpu_[k].OccupiedCount();
    if (best == kNoCpu || load < best_load) {
      best = k;
      best_load = load;
    }
  }
  return best;
}

Status Aegis::GrantSlice(Env& env, uint32_t cpu_index) {
  CpuSched& cpu = cpu_[cpu_index];
  for (uint32_t slot = 0; slot < cpu.slice_vector.size(); ++slot) {
    if (cpu.slice_vector[slot] == kNoEnv) {
      cpu.SetSlot(slot, env.id);
      ++env.slice_slots;
      env.slot_mask |= 1ULL << cpu_index;
      return Status::kOk;
    }
  }
  return Status::kErrNoResources;
}

void Aegis::ReleaseSlots(Env& env) {
  for (CpuSched& cpu : cpu_) {
    for (uint32_t slot = 0; slot < cpu.slice_vector.size(); ++slot) {
      if (cpu.slice_vector[slot] == env.id) {
        cpu.SetSlot(slot, kNoEnv);
      }
    }
    if (cpu.yield_hint == env.id) {
      cpu.yield_hint = kNoEnv;
    }
  }
  env.slice_slots = 0;
  env.slot_mask = 0;
}

void Aegis::Run() {
  running_ = true;
  std::vector<std::function<void()>> bodies;
  for (uint32_t k = 0; k < machine_.cpu_count(); ++k) {
    bodies.push_back([this, k]() { RunCpu(k); });
  }
  machine_.RunCpus(std::move(bodies));
  running_ = false;
}


void Aegis::RunCpu(uint32_t cpu_index) {
  CpuSched& cpu = cpu_[cpu_index];
  const auto runnable_here = [&](const auto& env) { return RunnableOn(*env, cpu_index); };
  while (AnyLive() && !powered_off_) {
    const Pick pick = std::exchange(cpu.picked_nothing, false) ? Pick{} : PickNext(cpu_index);
    if (pick.env == nullptr) {
      priv_.ClearSliceDeadline();
      // That clear charged cycles, and any charge may deliver a due
      // interrupt (in a World it may even yield to another machine
      // first, advancing the clock by thousands of cycles). If that woke
      // an env this CPU may run, parking would strand it behind an empty
      // event queue — a lost wakeup — so re-scan. An env woken with its
      // slots elsewhere was IPI'd to them by the wake; otherwise halt.
      if (std::none_of(envs_.begin(), envs_.end(), runnable_here)) {
        machine_.WaitForInterrupt();
      }
      continue;
    }
    Claim(pick, cpu_index);
    hw::Fiber::Switch(cpu.kernel_fiber, *pick.env->fiber);
    // An env fiber handed the CPU back (HandOff).
    if (Env* env = std::exchange(cpu.release, nullptr)) {
      EndTurn(*env);
      NudgeCpusFor(*env);  // Still runnable: a parked CPU holding its slot may run it.
    }
  }
  priv_.ClearSliceDeadline();
}

// --- Basic syscalls ---

void Aegis::SysNull() {
  SyscallScope scope(*this, xtrace::Sys::kNull);
  machine_.Charge(kSyscallEntry + kSyscallExit);
}

uint64_t Aegis::SysGetCycles() {
  SyscallScope scope(*this, xtrace::Sys::kGetCycles);
  machine_.Charge(Instr(3));  // Guaranteed-register pseudo-instruction.
  return machine_.clock().now();
}

EnvId Aegis::SysSelf() {
  SyscallScope scope(*this, xtrace::Sys::kSelf);
  machine_.Charge(Instr(2));
  return cur().current;
}

uint32_t Aegis::SysCpuSlices() {
  SyscallScope scope(*this, xtrace::Sys::kCpuSlices);
  machine_.Charge(Instr(2));
  return static_cast<uint32_t>(cur().slice_vector.size());
}

uint32_t Aegis::SysCpuCount() {
  SyscallScope scope(*this, xtrace::Sys::kCpuCount);
  machine_.Charge(Instr(2));  // PRId/config register read.
  return machine_.cpu_count();
}

uint32_t Aegis::SysCurrentCpu() {
  SyscallScope scope(*this, xtrace::Sys::kCurrentCpu);
  machine_.Charge(Instr(2));
  return machine_.current_cpu();
}

Status Aegis::SysAllocSlice(uint32_t cpu) {
  SyscallScope scope(*this, xtrace::Sys::kAllocSlice);
  machine_.Charge(kSyscallEntry + Instr(10) + kSyscallExit);
  Env& env = CurrentEnv();
  uint32_t target = cpu;
  if (cpu == kAnyCpu) {
    target = PickCpu(env.cpu_mask);
  } else if (cpu >= machine_.cpu_count() || cpu >= 64 ||
             (env.cpu_mask & (1ULL << cpu)) == 0) {
    return Status::kErrInvalidArgs;
  }
  if (target == kNoCpu) {
    return Status::kErrInvalidArgs;
  }
  return GrantSlice(env, target);
}

void Aegis::SysYield(EnvId target) {
  SyscallScope scope(*this, xtrace::Sys::kYield);
  Trace(xtrace::Event::kYield, target);
  machine_.Charge(kSyscallEntry + kYieldPath);
  if (target != kAnyEnv && target != kNoEnv) {
    // Directed yield donates the rest of the current slice to `target`.
    cur().yield_hint = target;
  } else {
    priv_.ClearSliceDeadline();  // Give up the remainder.
  }
  LeaveCpu();
  machine_.Charge(kSyscallExit);
}

void Aegis::SysBlock() {
  SyscallScope scope(*this, xtrace::Sys::kBlock);
  machine_.Charge(kSyscallEntry + Instr(6));
  Env& env = CurrentEnv();
  if (env.wake_pending) {
    env.wake_pending = false;  // A wake raced ahead of us: don't sleep.
    machine_.Charge(kSyscallExit);
    return;
  }
  env.state = EnvState::kBlocked;
  priv_.ClearSliceDeadline();
  LeaveCpu();
  machine_.Charge(kSyscallExit);
}

void Aegis::SysSleep(uint64_t cycles) {
  SyscallScope scope(*this, xtrace::Sys::kSleep);
  machine_.Charge(kSyscallEntry + Instr(6));
  Env& env = CurrentEnv();
  // The alarm carries the sleep's generation; bumping it again on return
  // disarms the alarm, so whichever wake ends this sleep, a late alarm can
  // never cut a later SysBlock or SysSleep short.
  const uint64_t gen = ++env.alarm_gen;
  priv_.ScheduleEvent(cycles, hw::InterruptSource::kAlarm, (gen << 32) | env.id);
  SysBlock();
  ++env.alarm_gen;
}

Status Aegis::SysWake(EnvId id, const Capability& env_cap) {
  SyscallScope scope(*this, xtrace::Sys::kWake);
  machine_.Charge(kSyscallEntry + kCapCheck + kSyscallExit);
  Env* env = FindEnv(id);
  if (env == nullptr || env->state == EnvState::kExited) {
    return Status::kErrNotFound;
  }
  if (!authority_.Check(env_cap, EnvResource(id), cap::kWrite, 0)) {
    return Status::kErrAccessDenied;
  }
  WakeEnvInternal(*env);
  return Status::kOk;
}

uint64_t Aegis::slices_of(EnvId id) const {
  if (id == kNoEnv || id > envs_.size()) {
    return 0;
  }
  return envs_[id - 1]->slices_run;
}

// --- Protected control transfer (paper §5.2) ---

Result<PctArgs> Aegis::SysPctCall(EnvId callee, const PctArgs& args) {
  SyscallScope scope(*this, xtrace::Sys::kPctCall);
  Trace(xtrace::Event::kPct, callee, /*sync=*/1);
  machine_.Charge(kPctOneWay);
  Env* target = FindEnv(callee);
  if (target == nullptr || target->state == EnvState::kExited) {
    return Status::kErrNotFound;
  }
  if (!target->handlers.pct_sync) {
    return Status::kErrUnsupported;
  }
  const EnvId caller = cur().current;
  const bool outer = !cur().in_pct;
  cur().in_pct = true;
  priv_.SetAsid(target->asid);
  cur().current = callee;

  // Control is now in the callee's protection domain, at its protected
  // entry, with the caller's slice donated. The transfer is atomic: it
  // cannot be diverted between initiation and entry.
  PctArgs reply = target->handlers.pct_sync(args);

  cur().current = caller;
  priv_.SetAsid(CurrentEnv().asid);
  machine_.Charge(kPctOneWay);
  if (outer) {
    cur().in_pct = false;
    // Kills first: if the caller itself was condemned mid-transfer this
    // does not return, and a corpse must not run its slice epilogue.
    ProcessDeferredKills();
    if (cur().slice_expired_during_pct) {
      // The slice ended mid-transfer; honour it now that atomicity holds.
      cur().slice_expired_during_pct = false;
      OnInterrupt(hw::InterruptSource::kTimer, 0);
    }
  }
  return reply;
}

Status Aegis::SysPctSend(EnvId callee, const PctArgs& args) {
  SyscallScope scope(*this, xtrace::Sys::kPctSend);
  Trace(xtrace::Event::kPct, callee, /*sync=*/0);
  machine_.Charge(kPctOneWay);
  Env* target = FindEnv(callee);
  if (target == nullptr || target->state == EnvState::kExited) {
    return Status::kErrNotFound;
  }
  if (!target->handlers.pct_async) {
    return Status::kErrUnsupported;
  }
  target->mailbox.push_back(args);
  WakeEnvInternal(*target);
  return Status::kOk;
}

// --- Exceptions (paper §5.3) ---

hw::TrapOutcome Aegis::OnException(hw::TrapFrame& frame) {
  Env* faulter = FindEnv(cur().current);
  if (frame.type == hw::ExceptionType::kTlbMissLoad ||
      frame.type == hw::ExceptionType::kTlbMissStore) {
    if (faulter != nullptr) {
      ++faulter->counters.tlb_misses;
    }
    // Kernel TLB refill: the software TLB caches secure bindings; a hit
    // installs the mapping without involving the application at all.
    if (stlb_enabled_) {
      machine_.Charge(kStlbLookup);
      const hw::Asid asid = priv_.asid();
      const Stlb::Entry* entry = stlb_.Lookup(hw::VpnOf(frame.bad_vaddr), asid);
      if (entry != nullptr) {
        hw::TlbEntry tlb_entry{entry->vpn, asid, entry->pfn, true, entry->writable};
        priv_.TlbWriteRandom(tlb_entry);
        ++stlb_hits_;
        if (faulter != nullptr) {
          ++faulter->counters.stlb_hits;
        }
        Trace(xtrace::Event::kStlbFill, hw::VpnOf(frame.bad_vaddr));
        return hw::TrapOutcome::kRetry;
      }
      ++stlb_misses_;
      if (faulter != nullptr) {
        ++faulter->counters.stlb_misses;
      }
    }
  }
  Trace(xtrace::Event::kException, static_cast<uint32_t>(frame.type),
        static_cast<uint32_t>(frame.bad_vaddr));
  // Dispatch to the application's exception context: save the three
  // scratch registers to the agreed-upon save area (physical addresses),
  // load cause/badvaddr, and jump — 18 instructions.
  machine_.Charge(kExceptionDispatch);
  Env* env = FindEnv(cur().current);
  if (env == nullptr || !env->handlers.exception || env->state == EnvState::kExited) {
    return hw::TrapOutcome::kSkip;
  }
  const ExcAction action = env->handlers.exception(frame);
  machine_.Charge(kExceptionResume);
  return action == ExcAction::kRetry ? hw::TrapOutcome::kRetry : hw::TrapOutcome::kSkip;
}

// --- Interrupts ---

void Aegis::OnInterrupt(hw::InterruptSource source, uint64_t payload) {
  Trace(xtrace::Event::kInterrupt, static_cast<uint32_t>(source),
        static_cast<uint32_t>(payload));
  switch (source) {
    case hw::InterruptSource::kTimer: {
      if (cur().current == kNoEnv) {
        return;  // Stale timer after the slice owner already left.
      }
      if (cur().in_pct) {
        cur().slice_expired_during_pct = true;  // Honoured when the PCT returns.
        return;
      }
      Env& env = CurrentEnv();
      if (env.state == EnvState::kExited) {
        // The slice owner died mid-teardown (its charges can still raise
        // the deadline interrupt); never run a corpse's epilogue or switch
        // away from the teardown in progress.
        return;
      }
      machine_.Charge(kTimerSlicePath);
      const uint64_t epilogue_start = machine_.clock().now();
      if (env.handlers.timer_epilogue) {
        // The application's interrupt context saves its own state.
        env.handlers.timer_epilogue();
      }
      if (machine_.clock().now() - epilogue_start > kEpilogueBudget) {
        ++env.excess_penalty;  // Paid back with a forfeited slice.
        ++env.epilogue_overruns;
      }
      LeaveCpu();
      break;
    }
    case hw::InterruptSource::kNicRx:
      HandleRxPacket();
      break;
    case hw::InterruptSource::kAlarm: {
      Env* sleeper = FindEnv(static_cast<EnvId>(payload));
      if (sleeper != nullptr && sleeper->state != EnvState::kExited &&
          (payload >> 32) == sleeper->alarm_gen) {
        WakeEnvInternal(*sleeper);
      }
      break;
    }
    case hw::InterruptSource::kDiskDone: {
      // Retire the request (the DMA lands here unless the transfer drew an
      // injected media error). A cancelled or spurious request id retires
      // as kErrNotFound and wakes no one.
      bool failed = false;
      if (disk_ != nullptr) {
        Result<hw::Disk::Completion> done = disk_->Complete(payload);
        failed = done.ok() && done->failed;
      }
      Trace(xtrace::Event::kDiskComplete, static_cast<uint32_t>(payload), failed ? 1u : 0u);
      RetireDiskWaiter(payload, failed ? Status::kErrIo : Status::kOk);
      if (failed) {
        MaybeAuditAfterFault();
      }
      break;
    }
    case hw::InterruptSource::kIpi: {
      // Payload 0: reschedule nudge — being woken out of WaitForInterrupt
      // is the entire effect; the kernel loop rescans its slice vector.
      // Nonzero: reap request for the named environment (cross-CPU kill).
      const EnvId target = static_cast<EnvId>(payload);
      if (target == kNoEnv) {
        break;
      }
      Env* victim = FindEnv(target);
      if (victim != nullptr) {
        victim->kill_pending = false;  // The reap is landing right now.
      }
      (void)KillEnv(target);  // Suicide path if the victim runs here.
      break;
    }
    case hw::InterruptSource::kFault: {
      // Asynchronous environment kill, delivered at an arbitrary
      // cycle-charge boundary. A stale id (the victim already exited) is a
      // no-op.
      Env* victim = FindEnv(static_cast<EnvId>(payload));
      if (victim != nullptr && victim->state != EnvState::kExited) {
        ++victim->counters.faults_injected;
      }
      (void)KillEnv(static_cast<EnvId>(payload));
      break;
    }
    case hw::InterruptSource::kPressure:
      HandlePressure(payload);
      break;
    case hw::InterruptSource::kPowerFail: {
      // Power loss at an arbitrary cycle-charge boundary: the disk's
      // volatile buffer dies (torn writes land now), the device freezes,
      // and the scheduler halts. If we are executing on an environment's
      // fiber, abandon it mid-instruction — no epilogue, no teardown; a
      // power cut gives nobody a chance to clean up.
      if (!powered_off_) {
        Trace(xtrace::Event::kPowerCut);
        powered_off_ = true;
        if (disk_ != nullptr) {
          disk_->PowerCut();
        }
        // The power rail is machine-wide: fan the failure out to every
        // sibling CPU so parked ones wake to observe powered_off_ and
        // running ones abandon their environment fibers too. Only this
        // machine halts — other machines in a World keep running.
        for (uint32_t k = 0; k < machine_.cpu_count(); ++k) {
          if (k != machine_.current_cpu()) {
            priv_.ScheduleEventOnCpu(k, 0, hw::InterruptSource::kPowerFail, 0);
          }
        }
      }
      if (cur().env_fiber_active && cur().current != kNoEnv) {
        LeaveCpu();  // Never returns: Run() exits on powered_off_.
      }
      break;
    }
  }
}

// --- Fault injection and kernel self-audit ---

void Aegis::InstallFaultPlan(const hw::FaultPlan& plan) {
  injector_ = std::make_unique<hw::FaultInjector>(plan);
  if (disk_ != nullptr) {
    disk_->set_fault_injector(injector_.get());
  }
  const uint64_t now = machine_.clock().now();
  for (const hw::FaultEvent& event : plan.events) {
    const uint64_t delay = event.at_cycle > now ? event.at_cycle - now : 0;
    switch (event.kind) {
      case hw::FaultKind::kKillEnv:
        priv_.ScheduleEvent(delay, hw::InterruptSource::kFault, event.arg0);
        break;
      case hw::FaultKind::kSpuriousIrq:
        priv_.ScheduleEvent(delay, static_cast<hw::InterruptSource>(event.arg0), event.arg1);
        break;
      case hw::FaultKind::kPowerCut:
        priv_.ScheduleEvent(delay, hw::InterruptSource::kPowerFail, 0);
        break;
      case hw::FaultKind::kDiskError:
        break;  // The injector fails the disk's completion itself.
    }
  }
}

bool Aegis::EnvAlive(EnvId id) const {
  if (id == kNoEnv || id > envs_.size()) {
    return false;
  }
  return envs_[id - 1]->state != EnvState::kExited;
}

bool Aegis::SysEnvAlive(EnvId id) {
  SyscallScope scope(*this, xtrace::Sys::kEnvAlive);
  machine_.Charge(kSyscallEntry + Instr(4) + kSyscallExit);
  return EnvAlive(id);
}

Status Aegis::SysKillEnv(EnvId victim, const cap::Capability& env_cap) {
  SyscallScope scope(*this, xtrace::Sys::kKillEnv);
  machine_.Charge(kSyscallEntry + kCapCheck + kSyscallExit);
  Env* target = FindEnv(victim);
  if (target == nullptr || target->state == EnvState::kExited) {
    return Status::kErrNotFound;
  }
  // Forced termination demands the revocation right on the environment —
  // exactly the env_cap handed to whoever created it (a supervisor).
  if (!authority_.Check(env_cap, EnvResource(victim), cap::kRevoke, 0)) {
    return Status::kErrAccessDenied;
  }
  return KillEnv(victim);
}

// --- xtrace syscalls (observability as library policy) ---

Status Aegis::SysBindTraceRing(const TraceRingSpec& spec, const Capability& region_cap) {
  SyscallScope scope(*this, xtrace::Sys::kBindTraceRing);
  machine_.Charge(kSyscallEntry + kCapCheck + Instr(30));  // Validate + format.
  Env& env = CurrentEnv();
  machine_.Charge(kSyscallExit);
  if (trace_ != nullptr) {
    // One logic analyser on the bus at a time: the ring is a global kernel
    // resource (it records events from *every* environment), so a second
    // binding must fail visibly rather than silently steal the stream.
    return Status::kErrAlreadyExists;
  }
  const uint32_t slots =
      xtrace::TraceRingView::SlotsFor(static_cast<size_t>(spec.pages) * hw::kPageBytes);
  if (spec.pages == 0 || slots == 0 || spec.mask == 0) {
    return Status::kErrInvalidArgs;
  }
  const Region region{spec.first_page, spec.pages};
  if (!ProvesRegion(env.id, region, region_cap)) {
    return Status::kErrAccessDenied;
  }
  Result<xtrace::TraceRingView> view =
      xtrace::TraceRingView::Format(RegionBytes(region), slots, spec.mask);
  if (!view.ok()) {
    return view.status();
  }
  auto trace = std::make_unique<TraceState>();
  trace->owner = env.id;
  trace->region = region;
  trace->slots = slots;
  trace->mask = spec.mask;
  trace_ = std::move(trace);
  return Status::kOk;
}

Status Aegis::SysUnbindTraceRing() {
  SyscallScope scope(*this, xtrace::Sys::kUnbindTraceRing);
  machine_.Charge(kSyscallEntry + Instr(6) + kSyscallExit);
  if (trace_ == nullptr) {
    return Status::kErrNotFound;
  }
  if (trace_->owner != cur().current) {
    return Status::kErrAccessDenied;
  }
  SeverTraceRing();  // The region pages stay with the caller.
  return Status::kOk;
}

Status Aegis::SysTraceMark(uint32_t a0, uint32_t a1, uint32_t a2, uint32_t a3) {
  SyscallScope scope(*this, xtrace::Sys::kTraceMark);
  machine_.Charge(kSyscallEntry + Instr(2) + kSyscallExit);
  Trace(xtrace::Event::kAppMark, a0, a1, a2, a3);
  return Status::kOk;
}

Result<EnvStats> Aegis::SysEnvStats(EnvId env) {
  SyscallScope scope(*this, xtrace::Sys::kEnvStats);
  machine_.Charge(kSyscallEntry + Instr(20) + kSyscallExit);
  if (env == kNoEnv || env > envs_.size()) {
    return Status::kErrNotFound;
  }
  return env_stats(env);
}

Result<xtrace::LatencyHist> Aegis::SysSyscallHist(uint32_t sysno) {
  SyscallScope scope(*this, xtrace::Sys::kSyscallHist);
  machine_.Charge(kSyscallEntry + Instr(20) + kSyscallExit);
  if (sysno >= xtrace::kSysCount) {
    return Status::kErrOutOfRange;
  }
  return syscall_hist_[sysno];
}

EnvStats Aegis::env_stats(EnvId env) const {
  EnvStats stats;
  if (env == kNoEnv || env > envs_.size()) {
    return stats;
  }
  const Env& e = *envs_[env - 1];
  stats.env = env;
  stats.alive = e.state != EnvState::kExited;
  stats.killed = e.killed;
  stats.pages_held = e.pages_owned;
  stats.slices_run = e.slices_run;
  stats.cpu = e.on_cpu != kNoCpu ? e.on_cpu : e.last_cpu;
  stats.slice_slots = e.slice_slots;
  stats.counters = e.counters;
  return stats;
}

void Aegis::DebugSkewPageAccounting(EnvId env, int32_t delta) {
  Env* e = FindEnv(env);
  if (e != nullptr) {
    e->pages_owned = static_cast<uint32_t>(static_cast<int32_t>(e->pages_owned) + delta);
  }
}

void Aegis::DebugSkewSliceAccounting(EnvId env, int32_t delta) {
  Env* e = FindEnv(env);
  if (e != nullptr) {
    e->slice_slots = static_cast<uint32_t>(static_cast<int32_t>(e->slice_slots) + delta);
  }
}

void Aegis::MaybeAuditAfterFault() {
  if (!audit_on_fault_) {
    return;
  }
  const AuditReport report = AuditInvariants();
  if (!report.ok()) {
    ++audit_failures_;
    if (first_audit_failure_.empty()) {
      first_audit_failure_ = report.violations.front();
    }
  }
}

Aegis::AuditReport Aegis::AuditInvariants() const {
  AuditReport report;
  auto fail = [&report](std::string what) { report.violations.push_back(std::move(what)); };
  auto alive = [this](EnvId id) { return EnvAlive(id); };
  // Ownership of pages/extents/filters/tiles persists past a *clean* exit
  // (see SysExit); only a killed environment must have lost everything.
  auto owner_ok = [this, alive](EnvId id) {
    if (alive(id)) {
      return true;
    }
    if (id == kNoEnv || id > envs_.size()) {
      return false;
    }
    return !envs_[id - 1]->killed;
  };

  // Liveness bookkeeping is self-consistent.
  uint32_t live = 0;
  for (const auto& env : envs_) {
    live += (env->state != EnvState::kExited) ? 1 : 0;
  }
  if (live != live_envs_) {
    fail("live_envs_ == " + std::to_string(live_envs_) + ", counted " + std::to_string(live));
  }

  // Every owned page has a live owner; per-env counts agree.
  std::vector<uint32_t> counted(envs_.size() + 1, 0);
  for (hw::PageId p = 0; p < pages_.size(); ++p) {
    const EnvId owner = pages_[p].owner;
    if (owner == kNoEnv) {
      continue;
    }
    if (!owner_ok(owner)) {
      fail("page " + std::to_string(p) + " leaked by killed env " + std::to_string(owner));
    } else {
      ++counted[owner];
    }
  }
  for (const auto& env : envs_) {
    if (env->state == EnvState::kExited) {
      if (env->killed && env->pages_owned != 0) {
        fail("killed env " + std::to_string(env->id) + " counts pages");
      }
      if (!env->mailbox.empty()) fail("dead env " + std::to_string(env->id) + " holds PCTs");
      if (env->killed && !env->repossessed.empty()) {
        fail("killed env " + std::to_string(env->id) + " holds repossessed pages");
      }
      if (env->disk_pending) fail("dead env " + std::to_string(env->id) + " awaits disk");
    } else if (env->pages_owned != counted[env->id]) {
      fail("env " + std::to_string(env->id) + " pages_owned=" + std::to_string(env->pages_owned) +
           " but owns " + std::to_string(counted[env->id]));
    }
  }

  // Accounting cross-check (xtrace): the per-env pages-held counters the
  // kernel reports through SysEnvStats must sum to exactly the number of
  // allocated frames — a mismatch means the kernel's own books are cooked
  // and every resource-visibility claim downstream of them is suspect.
  {
    uint64_t held = 0;
    for (const auto& env : envs_) {
      held += env->pages_owned;
    }
    uint64_t allocated = 0;
    for (const PageInfo& page : pages_) {
      allocated += (page.owner != kNoEnv) ? 1 : 0;
    }
    if (held != allocated) {
      EnvId offender = kNoEnv;
      for (const auto& env : envs_) {
        if (env->pages_owned != counted[env->id]) {
          offender = env->id;
          break;
        }
      }
      fail("page accounting: envs report " + std::to_string(held) + " pages held, kernel has " +
           std::to_string(allocated) + " frames allocated (first offender: env " +
           std::to_string(offender) + ")");
    }
  }

  // Trace ring: a live binding must belong to an owner that kept its
  // resources and target frames that owner still holds — otherwise the
  // kernel would append records into reclaimed (reallocatable) memory.
  if (trace_ != nullptr) {
    if (!owner_ok(trace_->owner)) {
      fail("trace ring bound to killed env " + std::to_string(trace_->owner));
    }
    if (!HoldsFrames(trace_->owner, trace_->region)) {
      fail("trace ring targets a frame its owner lost");
    }
  }

  // No stale translation: every valid TLB/STLB entry names a live address
  // space and a frame that space still owns.
  // A mapping's address space must be live (asid flushed on any exit), and
  // the frame it names must still be allocated to a valid owner — not
  // necessarily the mapper: capability-authorized sharing maps a peer's
  // frame. Reclaimed frames have no mappings (FlushPageBindings).
  for (uint32_t k = 0; k < machine_.cpu_count(); ++k) {
    for (const hw::TlbEntry& entry : machine_.cpu(k).tlb().entries()) {
      if (!entry.valid) {
        continue;
      }
      if (!alive(static_cast<EnvId>(entry.asid))) {
        fail("cpu " + std::to_string(k) + " TLB entry for dead asid " +
             std::to_string(entry.asid));
      } else if (entry.pfn >= pages_.size() || !owner_ok(pages_[entry.pfn].owner)) {
        fail("cpu " + std::to_string(k) + " TLB entry maps reclaimed frame " +
             std::to_string(entry.pfn));
      }
    }
  }
  // The STLB's per-frame and per-asid counts must match a recount of its
  // valid slots.
  std::vector<uint16_t> frame_entries(pages_.size(), 0);
  std::vector<uint16_t> asid_entries(stlb_.asid_entries().size(), 0);
  bool asid_uncounted = false;
  for (const Stlb::Entry& entry : stlb_.slots()) {
    if (!entry.valid) {
      continue;
    }
    if (entry.asid < asid_entries.size()) {
      ++asid_entries[entry.asid];
    } else {
      asid_uncounted = true;
    }
    if (!alive(static_cast<EnvId>(entry.asid))) {
      fail("STLB entry for dead asid " + std::to_string(entry.asid));
    } else if (entry.pfn >= pages_.size() || !owner_ok(pages_[entry.pfn].owner)) {
      fail("STLB entry maps reclaimed frame " + std::to_string(entry.pfn));
    }
    if (entry.pfn < pages_.size()) {
      ++frame_entries[entry.pfn];
    }
  }
  for (size_t p = 0; p < frame_entries.size(); ++p) {
    if (frame_entries[p] != stlb_.frame_entries()[p]) {
      fail("STLB counts " + std::to_string(stlb_.frame_entries()[p]) + " entries for frame " +
           std::to_string(p) + ", its slots hold " + std::to_string(frame_entries[p]));
      break;  // One miscounted frame suffices.
    }
  }
  if (asid_uncounted || asid_entries != stlb_.asid_entries()) {
    fail("STLB per-asid entry counts differ from its slots");
  }

  // Packet-filter bindings: live owner, and the pinned region is still his.
  for (size_t id = 0; id < bindings_.size(); ++id) {
    const FilterBinding& binding = bindings_[id];
    if (!binding.live) {
      continue;
    }
    if (!owner_ok(binding.owner)) {
      fail("filter " + std::to_string(id) + " bound to killed env " +
           std::to_string(binding.owner));
      continue;
    }
    if (!HoldsFrames(binding.owner, binding.region)) {
      fail("filter " + std::to_string(id) + " pins a frame its owner lost");
    }
    // A live ring must target frames its owner still holds — otherwise the
    // demux would deposit packets into reclaimed (reallocatable) memory.
    // An unbound ring's region is empty and always held.
    if (!HoldsFrames(binding.owner, binding.ring.region)) {
      fail("filter " + std::to_string(id) + " ring targets a frame its owner lost");
    }
  }

  // Disk extents and waiters.
  for (size_t id = 0; id < extents_.size(); ++id) {
    if (extents_[id].live && !owner_ok(extents_[id].owner)) {
      fail("extent " + std::to_string(id) + " owned by killed env " +
           std::to_string(extents_[id].owner));
    }
  }
  for (const auto& [request, waiter] : disk_waiters_) {
    if (!alive(waiter)) {
      fail("disk request " + std::to_string(request) + " waited on by dead env " +
           std::to_string(waiter));
    }
  }

  // Scheduler: every slice-vector slot on every CPU names a live env, the
  // donation hints reference only live envs, each CPU's occupied-slot
  // bitmap matches its vector, and each env's slice-slot ledger matches the
  // slots the vectors actually hold for it.
  std::vector<uint32_t> slots_held(envs_.size() + 1, 0);
  for (size_t k = 0; k < cpu_.size(); ++k) {
    const CpuSched& cpu = cpu_[k];
    std::vector<uint64_t> occupied(cpu.occupied.size(), 0);
    for (size_t slot = 0; slot < cpu.slice_vector.size(); ++slot) {
      const EnvId id = cpu.slice_vector[slot];
      if (id == kNoEnv) {
        continue;
      }
      occupied[slot / 64] |= 1ULL << (slot % 64);
      if (!alive(id)) {
        fail("cpu " + std::to_string(k) + " slice " + std::to_string(slot) +
             " owned by dead env " + std::to_string(id));
      } else {
        ++slots_held[id];
      }
    }
    if (occupied != cpu.occupied) {
      fail("cpu " + std::to_string(k) + " occupied-slot bitmap disagrees with its slice vector");
    }
    if (cpu.yield_hint != kNoEnv && !alive(cpu.yield_hint)) {
      fail("cpu " + std::to_string(k) + " yield hint names dead env " +
           std::to_string(cpu.yield_hint));
    }
  }
  for (const auto& env : envs_) {
    if (env->state != EnvState::kExited && env->slice_slots != slots_held[env->id]) {
      fail("slice accounting: env " + std::to_string(env->id) + " reports " +
           std::to_string(env->slice_slots) + " slots, vectors hold " +
           std::to_string(slots_held[env->id]) + " (first offender: env " +
           std::to_string(env->id) + ")");
      break;  // Name the first offender; one cooked ledger line suffices.
    }
  }

  // Framebuffer ownership tags.
  if (framebuffer_ != nullptr) {
    for (uint32_t ty = 0; ty < framebuffer_->tile_rows(); ++ty) {
      for (uint32_t tx = 0; tx < framebuffer_->tile_cols(); ++tx) {
        const uint32_t tag = framebuffer_->TileOwner(tx, ty);
        if (tag != hw::Framebuffer::kNoOwner && !owner_ok(static_cast<EnvId>(tag))) {
          fail("fb tile (" + std::to_string(tx) + "," + std::to_string(ty) +
               ") tagged for killed env " + std::to_string(tag));
        }
      }
    }
  }
  return report;
}

// --- Framebuffer binding ---

Status Aegis::SysBindFbTile(uint32_t tile_x, uint32_t tile_y) {
  SyscallScope scope(*this, xtrace::Sys::kBindFbTile);
  machine_.Charge(kSyscallEntry + Instr(6) + kSyscallExit);
  if (framebuffer_ == nullptr) {
    return Status::kErrUnsupported;
  }
  Env& env = CurrentEnv();
  const uint32_t x = tile_x * hw::Framebuffer::kTileDim;
  const uint32_t y = tile_y * hw::Framebuffer::kTileDim;
  if (x >= framebuffer_->width() || y >= framebuffer_->height()) {
    return Status::kErrOutOfRange;
  }
  const uint32_t owner = framebuffer_->OwnerAt(x, y);
  if (owner != hw::Framebuffer::kNoOwner && owner != env.id) {
    return Status::kErrAccessDenied;
  }
  return framebuffer_->SetTileOwner(tile_x, tile_y, env.id);
}

}  // namespace xok::aegis
