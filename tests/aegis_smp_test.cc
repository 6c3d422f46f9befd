// SMP Aegis: per-CPU slice vectors, cross-CPU placement, IPIs, remote
// kills, and TLB shootdown. Everything here runs on a multi-CPU machine;
// single-CPU behaviour is covered by aegis_test.cc (and must not change).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/core/aegis.h"
#include "src/exos/process.h"
#include "src/exos/stride.h"

namespace xok::aegis {
namespace {

class AegisSmpTest : public ::testing::Test {
 protected:
  AegisSmpTest()
      : machine_(hw::Machine::Config{.phys_pages = 256, .name = "smp", .cpus = 4}),
        kernel_(machine_) {}

  hw::Machine machine_;
  Aegis kernel_;
};

TEST_F(AegisSmpTest, TopologySyscalls) {
  uint32_t count = 0;
  uint32_t current = ~0u;
  EnvSpec spec;
  spec.entry = [&] {
    count = kernel_.SysCpuCount();
    current = kernel_.SysCurrentCpu();
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
  EXPECT_EQ(count, 4u);
  EXPECT_LT(current, 4u);
}

TEST_F(AegisSmpTest, BirthPlacementSpreadsAcrossCpus) {
  // Four single-slice environments on four CPUs: least-loaded placement
  // must put one on each.
  std::set<uint32_t> cpus_seen;
  for (int i = 0; i < 4; ++i) {
    EnvSpec spec;
    spec.entry = [&] { cpus_seen.insert(kernel_.SysCurrentCpu()); };
    ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  }
  kernel_.Run();
  EXPECT_EQ(cpus_seen.size(), 4u);
}

TEST_F(AegisSmpTest, CpuMaskPinsAnEnvironment) {
  uint32_t ran_on = ~0u;
  EnvSpec spec;
  spec.cpu_mask = 1ULL << 2;
  spec.entry = [&] { ran_on = kernel_.SysCurrentCpu(); };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
  EXPECT_EQ(ran_on, 2u);
}

TEST_F(AegisSmpTest, CpuMaskAdmittingNoCpuIsRejected) {
  EnvSpec spec;
  spec.cpu_mask = 1ULL << 17;  // Machine only has 4 CPUs.
  spec.entry = [] {};
  EXPECT_EQ(kernel_.CreateEnv(std::move(spec)).status(), Status::kErrInvalidArgs);
}

TEST_F(AegisSmpTest, SysAllocSliceSpansAndValidates) {
  Status any = Status::kErrBadState;
  Status explicit_ok = Status::kErrBadState;
  Status out_of_range = Status::kOk;
  Status outside_mask = Status::kOk;
  EnvSpec spec;
  spec.cpu_mask = (1ULL << 0) | (1ULL << 1);
  spec.entry = [&] {
    any = kernel_.SysAllocSlice();          // Least-loaded admitted CPU.
    explicit_ok = kernel_.SysAllocSlice(1);
    out_of_range = kernel_.SysAllocSlice(9);   // No such CPU.
    outside_mask = kernel_.SysAllocSlice(3);   // CPU exists, mask forbids.
  };
  Result<EnvGrant> grant = kernel_.CreateEnv(std::move(spec));
  ASSERT_TRUE(grant.ok());
  kernel_.Run();
  EXPECT_EQ(any, Status::kOk);
  EXPECT_EQ(explicit_ok, Status::kOk);
  EXPECT_EQ(out_of_range, Status::kErrInvalidArgs);
  EXPECT_EQ(outside_mask, Status::kErrInvalidArgs);
  // The grants left the slice ledger consistent (slot counts are
  // cross-checked against every CPU's vector).
  EXPECT_TRUE(kernel_.AuditInvariants().ok());
}

TEST_F(AegisSmpTest, CrossCpuWakeMigratesTheWokenEnv) {
  // A starts on CPU 0 (lowest-index tie-break), grows a slot onto CPU 1,
  // and blocks. H — pinned to CPU 0 — wakes A and then keeps CPU 0 busy,
  // so the parked CPU 1 is IPI-nudged and picks A up: a migration.
  EnvId a_id = kNoEnv;
  cap::Capability a_cap;
  uint32_t before = ~0u;
  uint32_t after = ~0u;
  uint64_t migrations = 0;

  EnvSpec a;
  a.cpu_mask = (1ULL << 0) | (1ULL << 1);
  a.entry = [&] {
    ASSERT_EQ(kernel_.SysAllocSlice(1), Status::kOk);
    before = kernel_.SysCurrentCpu();
    kernel_.SysBlock();
    after = kernel_.SysCurrentCpu();
    Result<EnvStats> stats = kernel_.SysEnvStats(kernel_.SysSelf());
    ASSERT_TRUE(stats.ok());
    migrations = stats->counters.migrations;
  };
  Result<EnvGrant> grant = kernel_.CreateEnv(std::move(a));
  ASSERT_TRUE(grant.ok());
  a_id = grant->env;
  a_cap = grant->cap;

  EnvSpec h;
  h.cpu_mask = 1ULL << 0;
  h.entry = [&] {
    ASSERT_EQ(kernel_.SysWake(a_id, a_cap), Status::kOk);
    // Stay on CPU 0 so it cannot steal A back before CPU 1 reacts.
    machine_.Charge(kernel_.slice_cycles() / 2);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(h)).ok());

  kernel_.Run();
  EXPECT_EQ(before, 0u);
  EXPECT_EQ(after, 1u);
  EXPECT_EQ(migrations, 1u);
}

TEST_F(AegisSmpTest, KillLandsOnARemoteCpuViaIpi) {
  // V spins on CPU 1; the killer runs on CPU 0 and must hand the reap to
  // CPU 1 over an IPI (a fiber can only be torn down by the CPU it is on).
  EnvId v_id = kNoEnv;
  EnvSpec v;
  v.cpu_mask = 1ULL << 1;
  v.entry = [&] {
    while (true) {
      kernel_.SysNull();
    }
  };
  Result<EnvGrant> grant = kernel_.CreateEnv(std::move(v));
  ASSERT_TRUE(grant.ok());
  v_id = grant->env;

  EnvSpec k;
  k.cpu_mask = 1ULL << 0;
  k.entry = [&] {
    machine_.Charge(1000);  // Let V get onto CPU 1.
    EXPECT_EQ(kernel_.KillEnv(v_id), Status::kOk);
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(k)).ok());

  kernel_.Run();
  EXPECT_EQ(kernel_.remote_kills_sent(), 1u);
  EXPECT_EQ(kernel_.envs_killed(), 1u);
  EXPECT_FALSE(kernel_.EnvAlive(v_id));
  EXPECT_TRUE(kernel_.AuditInvariants().ok());
}

TEST_F(AegisSmpTest, DeallocShootsDownRemoteTlbEntries) {
  // P maps and touches a frame on CPU 1. Q — holding the page capability —
  // deallocates it from CPU 0. The stale translation in CPU 1's TLB must
  // be shot down: P's next access faults instead of reading a frame that
  // may already belong to someone else. This test fails if the IPI
  // invalidate is skipped (the load would silently succeed).
  constexpr hw::Vaddr kVa = 0x10000;
  bool mapped = false;
  bool deallocated = false;
  hw::PageId page = 0;
  cap::Capability page_cap;
  bool stale_read_ok = true;
  size_t faults = 0;
  uint64_t shootdowns_billed = 0;

  EnvSpec p;
  p.cpu_mask = 1ULL << 1;
  p.handlers.exception = [&](const hw::TrapFrame&) {
    ++faults;
    return ExcAction::kSkip;
  };
  p.entry = [&] {
    Result<PageGrant> grant = kernel_.SysAllocPage();
    ASSERT_TRUE(grant.ok());
    page = grant->page;
    page_cap = grant->cap;
    ASSERT_EQ(kernel_.SysTlbWrite(kVa, page, /*writable=*/true, page_cap), Status::kOk);
    ASSERT_EQ(machine_.StoreWord(kVa, 0x5eed), Status::kOk);
    mapped = true;
    while (!deallocated) {
      kernel_.SysYield();
    }
    stale_read_ok = machine_.LoadWord(kVa).ok();
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(p)).ok());

  EnvSpec q;
  q.cpu_mask = 1ULL << 0;
  q.entry = [&] {
    while (!mapped) {
      kernel_.SysYield();
    }
    ASSERT_EQ(kernel_.SysDeallocPage(page, page_cap), Status::kOk);
    shootdowns_billed = kernel_.tlb_shootdowns();
    deallocated = true;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(q)).ok());

  kernel_.Run();
  EXPECT_GE(shootdowns_billed, 1u);
  EXPECT_FALSE(stale_read_ok);
  EXPECT_GE(faults, 1u);
  // The hardware entry really is gone from CPU 1.
  EXPECT_EQ(machine_.cpu(1).tlb().Lookup(hw::VpnOf(kVa), 1), nullptr);
}

TEST_F(AegisSmpTest, ShootdownBillsTheInitiator) {
  // Same shape as above, but measuring the initiator's dealloc cost: with
  // a remote CPU holding the translation it must include at least one IPI
  // round (kIpiCost) plus the per-entry invalidate.
  constexpr hw::Vaddr kVa = 0x14000;
  bool mapped = false;
  bool done = false;
  hw::PageId page = 0;
  cap::Capability page_cap;
  uint64_t dealloc_cycles = 0;

  EnvSpec p;
  p.cpu_mask = 1ULL << 1;
  p.entry = [&] {
    Result<PageGrant> grant = kernel_.SysAllocPage();
    ASSERT_TRUE(grant.ok());
    page = grant->page;
    page_cap = grant->cap;
    ASSERT_EQ(kernel_.SysTlbWrite(kVa, page, true, page_cap), Status::kOk);
    ASSERT_EQ(machine_.StoreWord(kVa, 1), Status::kOk);
    mapped = true;
    while (!done) {
      kernel_.SysYield();
    }
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(p)).ok());

  EnvSpec q;
  q.cpu_mask = 1ULL << 0;
  q.entry = [&] {
    while (!mapped) {
      kernel_.SysYield();
    }
    const uint64_t t0 = machine_.clock().now();
    ASSERT_EQ(kernel_.SysDeallocPage(page, page_cap), Status::kOk);
    dealloc_cycles = machine_.clock().now() - t0;
    done = true;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(q)).ok());

  kernel_.Run();
  EXPECT_GE(dealloc_cycles, kIpiCost + kIpiRemoteInvalidate);
  EXPECT_GE(kernel_.env_stats(2).counters.tlb_shootdowns, 1u);
  EXPECT_GE(kernel_.env_stats(2).counters.ipis_sent, 1u);
}

TEST_F(AegisSmpTest, AuditCatchesSliceLedgerSkew) {
  // Satellite: the invariant audit walks every CPU's slice vector and
  // cross-checks per-env slot counts; a skewed ledger must name the first
  // offending environment.
  EnvId id = kNoEnv;
  EnvSpec spec;
  spec.entry = [&] {
    kernel_.SysNull();
    kernel_.SysYield();
  };
  Result<EnvGrant> grant = kernel_.CreateEnv(std::move(spec));
  ASSERT_TRUE(grant.ok());
  id = grant->env;

  ASSERT_TRUE(kernel_.AuditInvariants().ok());
  kernel_.DebugSkewSliceAccounting(id, +1);
  Aegis::AuditReport report = kernel_.AuditInvariants();
  ASSERT_FALSE(report.ok());
  bool named = false;
  for (const std::string& v : report.violations) {
    if (v.find("slice accounting") != std::string::npos &&
        v.find("first offender: env " + std::to_string(id)) != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named);
  kernel_.DebugSkewSliceAccounting(id, -1);
  EXPECT_TRUE(kernel_.AuditInvariants().ok());
  kernel_.Run();
}

TEST_F(AegisSmpTest, EnvStatsReportCurrentCpu) {
  uint32_t seen_cpu = ~0u;
  EnvSpec spec;
  spec.cpu_mask = 1ULL << 3;
  spec.entry = [&] {
    Result<EnvStats> stats = kernel_.SysEnvStats(kernel_.SysSelf());
    ASSERT_TRUE(stats.ok());
    seen_cpu = stats->cpu;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(spec)).ok());
  kernel_.Run();
  EXPECT_EQ(seen_cpu, 3u);
}

// --- The application-level SMP stride scheduler (exos) ---

TEST_F(AegisSmpTest, SmpStrideHonoursGlobalProportions) {
  // Two CPUs' worth of schedulers serve three clients homed on CPU 0 and
  // one on CPU 1, with tickets 3:1:1:1. Pass state is global, so the
  // ticket ratios must hold over the whole machine.
  using exos::Process;
  using exos::SmpStrideScheduler;

  std::vector<std::unique_ptr<Process>> workers;
  bool stop = false;
  for (int i = 0; i < 4; ++i) {
    workers.push_back(std::make_unique<Process>(
        kernel_,
        [&stop](Process& p) {
          while (!stop) {
            p.machine().Charge(p.kernel().slice_cycles() * 2);
          }
        },
        Process::Options{.slices = 0, .demand_zero = true}));
    ASSERT_TRUE(workers.back()->ok());
  }

  SmpStrideScheduler stride(kernel_);
  stride.AddClient(workers[0]->id(), 3, /*home_cpu=*/0);
  stride.AddClient(workers[1]->id(), 1, /*home_cpu=*/0);
  stride.AddClient(workers[2]->id(), 1, /*home_cpu=*/0);
  stride.AddClient(workers[3]->id(), 1, /*home_cpu=*/1);
  ASSERT_TRUE(stride.Start(/*slices_per_cpu=*/60));

  // Stop the workers once every scheduler has spent its slices. The
  // schedulers exit on their own; a watchdog env flips the flag.
  EnvSpec watchdog;
  watchdog.entry = [&] {
    kernel_.SysSleep(kernel_.slice_cycles() * 400);
    stop = true;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(watchdog)).ok());

  kernel_.Run();

  const std::vector<uint64_t>& a = stride.allocations();
  ASSERT_EQ(a.size(), 4u);
  const double total = static_cast<double>(a[0] + a[1] + a[2] + a[3]);
  ASSERT_GT(total, 0.0);
  EXPECT_NEAR(a[0] / total, 0.5, 0.1);   // 3 of 6 tickets.
  EXPECT_NEAR(a[1] / total, 1.0 / 6, 0.1);
  EXPECT_NEAR(a[2] / total, 1.0 / 6, 0.1);
  EXPECT_NEAR(a[3] / total, 1.0 / 6, 0.1);
}

TEST_F(AegisSmpTest, SmpStrideHandsOffIdleCpus) {
  // All clients homed on CPU 0: CPUs 1-3's schedulers have empty local
  // run lists and must donate their slices to the global minimum-pass
  // client instead of idling (work conservation).
  using exos::Process;
  using exos::SmpStrideScheduler;

  std::vector<std::unique_ptr<Process>> workers;
  bool stop = false;
  for (int i = 0; i < 2; ++i) {
    workers.push_back(std::make_unique<Process>(
        kernel_,
        [&stop](Process& p) {
          while (!stop) {
            p.machine().Charge(p.kernel().slice_cycles() * 2);
          }
        },
        Process::Options{.slices = 0, .demand_zero = true}));
    ASSERT_TRUE(workers.back()->ok());
  }

  SmpStrideScheduler stride(kernel_);
  stride.AddClient(workers[0]->id(), 1, /*home_cpu=*/0);
  stride.AddClient(workers[1]->id(), 1, /*home_cpu=*/0);
  ASSERT_TRUE(stride.Start(/*slices_per_cpu=*/20));

  EnvSpec watchdog;
  watchdog.entry = [&] {
    kernel_.SysSleep(kernel_.slice_cycles() * 400);
    stop = true;
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(watchdog)).ok());

  kernel_.Run();

  // CPUs 1-3 contributed 60 slices, every one a hand-off.
  EXPECT_GE(stride.handoffs(), 60u);
  EXPECT_EQ(stride.allocations()[0] + stride.allocations()[1], 80u);
}

TEST(AegisSmpIdleTest, IdleCpuHaltsWhileAPinnedSiblingIsBusy) {
  // Two envs pinned to CPU 0: A computes ~1M cycles while B stays runnable
  // (it yields until A is done). CPU 1 owns nothing either could run, so
  // it must halt rather than re-scan in lock-step with CPU 0; its clock
  // stays near where it parked.
  hw::Machine machine(hw::Machine::Config{.phys_pages = 64, .name = "idle", .cpus = 2});
  Aegis kernel(machine);
  bool a_done = false;
  EnvSpec a;
  a.cpu_mask = 1ULL << 0;
  a.entry = [&] {
    for (int i = 0; i < 1000; ++i) {
      machine.Charge(1000);
    }
    a_done = true;
  };
  ASSERT_TRUE(kernel.CreateEnv(std::move(a)).ok());
  EnvSpec b;
  b.cpu_mask = 1ULL << 0;
  b.entry = [&] {
    while (!a_done) {
      kernel.SysYield();
    }
  };
  ASSERT_TRUE(kernel.CreateEnv(std::move(b)).ok());

  kernel.Run();
  const uint64_t busy = machine.cpu(0).clock().now();
  const uint64_t idle = machine.cpu(1).clock().now();
  EXPECT_GE(busy, 1'000'000u);
  EXPECT_LT(idle, busy / 10) << "CPU 1 spun alongside CPU 0 instead of halting";
  EXPECT_TRUE(kernel.AuditInvariants().ok());
}

TEST(AegisSmpIdleTest, SliceEndReleaseReachesAParkedCpuHoldingTheEnvsSlot) {
  // X starts on CPU 0 (lowest-index tie-break) and grows a slot onto CPU 1,
  // which parked at boot: it owned nothing and Y is pinned to CPU 0. Both
  // compute for ~1M cycles. When X's slice on CPU 0 ends, CPU 0 moves on
  // to Y, and only the release's nudge restarts CPU 1 to run X; without
  // it X and Y share CPU 0 and the run takes ~2M cycles.
  hw::Machine machine(hw::Machine::Config{.phys_pages = 64, .name = "release", .cpus = 2});
  Aegis kernel(machine);
  constexpr uint64_t kWork = 1'000'000;
  const auto compute = [&] {
    for (uint64_t done = 0; done < kWork; done += 1000) {
      machine.Charge(1000);
    }
  };
  uint64_t x_migrations = 0;
  EnvSpec x;
  x.cpu_mask = (1ULL << 0) | (1ULL << 1);
  x.entry = [&] {
    ASSERT_EQ(kernel.SysAllocSlice(1), Status::kOk);
    compute();
    Result<EnvStats> stats = kernel.SysEnvStats(kernel.SysSelf());
    ASSERT_TRUE(stats.ok());
    x_migrations = stats->counters.migrations;
  };
  ASSERT_TRUE(kernel.CreateEnv(std::move(x)).ok());
  EnvSpec y;
  y.cpu_mask = 1ULL << 0;
  y.entry = compute;
  ASSERT_TRUE(kernel.CreateEnv(std::move(y)).ok());

  kernel.Run();
  const uint64_t makespan =
      std::max(machine.cpu(0).clock().now(), machine.cpu(1).clock().now());
  EXPECT_GT(x_migrations, 0u) << "X never ran on CPU 1";
  EXPECT_LT(makespan, kWork * 3 / 2) << "X and Y shared CPU 0 while CPU 1 stayed parked";
  EXPECT_TRUE(kernel.AuditInvariants().ok());
}

TEST(AegisSmpIdleTest, RevokingTheLastSlotReachesAParkedCpu) {
  // X and Y are pinned to CPU 1; CPU 0 owns nothing and parks at boot.
  // Y takes X's only slot away (min_keep 0) while X waits runnable, then
  // computes ~1M cycles. Slot-less, X may run on any CPU, and CPU 1's
  // scan keeps finding Y, so only the revocation's nudge gets X onto the
  // parked CPU 0 before Y is done.
  hw::Machine machine(hw::Machine::Config{.phys_pages = 64, .name = "revoke", .cpus = 2});
  Aegis kernel(machine);
  constexpr uint64_t kWork = 1'000'000;
  const auto compute = [&] {
    for (uint64_t done = 0; done < kWork; done += 1000) {
      machine.Charge(1000);
    }
  };
  EnvId x_id = kNoEnv;
  uint32_t x_ran_on = ~0u;
  EnvSpec y;
  y.cpu_mask = 1ULL << 1;
  y.entry = [&] {
    ASSERT_EQ(kernel.RevokeSlices(x_id, 1, /*min_keep=*/0), 1u);
    compute();
  };
  ASSERT_TRUE(kernel.CreateEnv(std::move(y)).ok());
  EnvSpec x;
  x.cpu_mask = 1ULL << 1;
  x.entry = [&] {
    x_ran_on = kernel.SysCurrentCpu();
    compute();
  };
  Result<EnvGrant> grant = kernel.CreateEnv(std::move(x));
  ASSERT_TRUE(grant.ok());
  x_id = grant->env;

  kernel.Run();
  const uint64_t makespan =
      std::max(machine.cpu(0).clock().now(), machine.cpu(1).clock().now());
  EXPECT_EQ(x_ran_on, 0u);
  EXPECT_LT(makespan, kWork * 3 / 2) << "X waited for Y while CPU 0 stayed parked";
  EXPECT_TRUE(kernel.AuditInvariants().ok());
}

TEST(AegisSmpIdleTest, WakeFromASiblingReachesAParkedCpuWithinAnIpi) {
  // E is pinned to CPU 0 and blocks, so CPU 0 halts. P, pinned to CPU 1,
  // wakes E: CPU 1 cannot run E, so only the wake's IPI can restart CPU 0,
  // and E must be back on CPU 0 within the IPI latency plus the wake,
  // interrupt and dispatch path.
  constexpr uint64_t kSlack = hw::Instr(100);  // Syscalls, trap, dispatch.
  hw::Machine machine(hw::Machine::Config{.phys_pages = 64, .name = "wake", .cpus = 2});
  Aegis kernel(machine);
  uint64_t woke_at = 0;
  uint32_t woke_on = ~0u;
  EnvSpec e;
  e.cpu_mask = 1ULL << 0;
  e.entry = [&] {
    kernel.SysBlock();
    woke_at = kernel.SysGetCycles();
    woke_on = kernel.SysCurrentCpu();
  };
  Result<EnvGrant> grant = kernel.CreateEnv(std::move(e));
  ASSERT_TRUE(grant.ok());

  uint64_t wake_at = 0;
  EnvSpec p;
  p.cpu_mask = 1ULL << 1;
  p.entry = [&] {
    machine.Charge(100'000);  // Long after E blocked and CPU 0 parked.
    wake_at = machine.clock().now();
    ASSERT_EQ(kernel.SysWake(grant->env, grant->cap), Status::kOk);
    machine.Charge(100'000);  // CPU 1 stays busy: E is CPU 0's to run.
  };
  ASSERT_TRUE(kernel.CreateEnv(std::move(p)).ok());

  kernel.Run();
  EXPECT_EQ(woke_on, 0u);
  EXPECT_GT(woke_at, wake_at);
  EXPECT_LE(woke_at, wake_at + hw::kIpiLatency + kSlack);
  EXPECT_TRUE(kernel.AuditInvariants().ok());
}

}  // namespace
}  // namespace xok::aegis
