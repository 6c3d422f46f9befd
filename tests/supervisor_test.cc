// Supervision tree: an init-style supervisor env restarting crashed
// children with exponential backoff (a respawn lands when its backoff
// ends, not at some later poll), declaring crash-loops permanent, leaving
// clean exits alone, and surviving edge cases: a second child dying while
// another sits in its backoff window, a clean exit preempted between its
// wake and its SysExit, and the supervisor itself being killed mid-storm
// with the kernel's ledger staying clean.
#include "src/exos/supervisor.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/aegis.h"
#include "src/hw/fault.h"

namespace xok {
namespace {

using aegis::Aegis;
using exos::ChildSpec;
using exos::ChildState;
using exos::RestartPolicy;
using exos::Supervisor;

class SupervisorTest : public ::testing::Test {
 protected:
  SupervisorTest()
      : machine_(hw::Machine::Config{.phys_pages = 256, .name = "supervise"}),
        // Environment ids are never reused, so restart churn needs asid
        // headroom well past the default.
        kernel_(machine_, Aegis::Config{.max_envs = 200}) {
    kernel_.set_audit_on_fault(true);
  }

  hw::Machine machine_;
  Aegis kernel_;
};

// A child crashes by reaping itself with its own env_cap (does not
// return); the supervisor sees killed=true, i.e. a genuine crash.
void CrashSelf(exos::Process& p) {
  (void)p.kernel().SysKillEnv(p.id(), p.env_cap());
}

TEST_F(SupervisorTest, RestartsACrashedChildUntilItSucceeds) {
  int attempts = 0;
  bool succeeded = false;
  std::vector<ChildSpec> specs;
  specs.push_back({
      .name = "flaky",
      .body =
          [&](exos::Process& p) {
            if (++attempts <= 2) {
              CrashSelf(p);
            }
            succeeded = true;
          },
      .policy = RestartPolicy::kOnFailure,
      .max_restarts = 4,
  });
  Supervisor sup(kernel_, std::move(specs));
  ASSERT_TRUE(sup.ok());
  kernel_.Run();

  EXPECT_TRUE(succeeded);
  EXPECT_EQ(attempts, 3);
  EXPECT_TRUE(sup.finished());
  ASSERT_EQ(sup.status().size(), 1u);
  EXPECT_EQ(sup.status()[0].state, ChildState::kDone);
  EXPECT_EQ(sup.status()[0].restarts, 2u);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

TEST_F(SupervisorTest, CrashLoopBecomesAPermanentFailure) {
  int attempts = 0;
  std::vector<ChildSpec> specs;
  specs.push_back({
      .name = "doomed",
      .body = [&](exos::Process& p) { ++attempts; CrashSelf(p); },
      .policy = RestartPolicy::kOnFailure,
      .max_restarts = 2,
  });
  Supervisor sup(kernel_, std::move(specs));
  ASSERT_TRUE(sup.ok());
  kernel_.Run();

  // Initial spawn + 2 restarts, then the breaker trips.
  EXPECT_EQ(attempts, 3);
  EXPECT_TRUE(sup.finished());
  EXPECT_EQ(sup.status()[0].state, ChildState::kFailed);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

TEST_F(SupervisorTest, CleanExitUnderOnFailureIsNotRestarted) {
  int runs = 0;
  std::vector<ChildSpec> specs;
  specs.push_back({
      .name = "oneshot",
      .body = [&](exos::Process&) { ++runs; },
      .policy = RestartPolicy::kOnFailure,
  });
  Supervisor sup(kernel_, std::move(specs));
  ASSERT_TRUE(sup.ok());
  kernel_.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sup.status()[0].state, ChildState::kDone);
  EXPECT_EQ(sup.status()[0].restarts, 0u);
}

// A second child dying while the first sits in its backoff window must
// not confuse either child's bookkeeping.
TEST_F(SupervisorTest, DeathDuringAnotherChildsBackoffWindow) {
  int a_attempts = 0;
  int b_attempts = 0;
  std::vector<ChildSpec> specs;
  specs.push_back({
      .name = "slow-backoff",
      .body =
          [&](exos::Process& p) {
            if (++a_attempts <= 2) {
              CrashSelf(p);
            }
          },
      .policy = RestartPolicy::kOnFailure,
      .max_restarts = 4,
      // Long windows: B's death (and restart) lands inside them.
      .backoff_initial = 400'000,
      .backoff_cap = 800'000,
  });
  specs.push_back({
      .name = "mid-window",
      .body =
          [&](exos::Process& p) {
            if (++b_attempts == 1) {
              p.kernel().SysSleep(150'000);  // Die inside A's first window.
              CrashSelf(p);
            }
          },
      .policy = RestartPolicy::kOnFailure,
      .max_restarts = 4,
      .backoff_initial = 50'000,
  });
  Supervisor sup(kernel_, std::move(specs));
  ASSERT_TRUE(sup.ok());
  kernel_.Run();

  EXPECT_TRUE(sup.finished());
  EXPECT_EQ(a_attempts, 3);
  EXPECT_EQ(b_attempts, 2);
  EXPECT_EQ(sup.status()[0].state, ChildState::kDone);
  EXPECT_EQ(sup.status()[0].restarts, 2u);
  EXPECT_EQ(sup.status()[1].state, ChildState::kDone);
  EXPECT_EQ(sup.status()[1].restarts, 1u);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

// The supervisor waits on events, so a respawn lands when its backoff
// ends: the death wakes the supervisor, which sleeps exactly to
// restart_at.
TEST_F(SupervisorTest, RespawnLandsWhenItsBackoffEnds) {
  constexpr uint64_t kBackoff = 50'000;
  constexpr uint64_t kSchedulingMargin = 2'000;
  std::vector<uint64_t> starts;
  uint64_t died_at = 0;
  std::vector<ChildSpec> specs;
  specs.push_back({
      .name = "once",
      .body =
          [&](exos::Process& p) {
            starts.push_back(p.kernel().SysGetCycles());
            if (starts.size() == 1) {
              p.kernel().SysSleep(30'000);
              died_at = p.kernel().SysGetCycles();
              CrashSelf(p);
            }
          },
      .policy = RestartPolicy::kOnFailure,
      .backoff_initial = kBackoff,
  });
  Supervisor sup(kernel_, std::move(specs));
  ASSERT_TRUE(sup.ok());
  kernel_.Run();

  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(sup.status()[0].restarts, 1u);
  EXPECT_GE(starts[1] - died_at, kBackoff);
  EXPECT_LT(starts[1] - died_at, kBackoff + kSchedulingMargin);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

// A child preempted between its wake and its SysExit is still alive
// when the supervisor looks, and its exit wakes nobody: the supervisor
// must count it done from its returned body. The sweep moves the child's
// return across a slice end until the preemption lands inside the wake,
// while a ticker keeps the supervisor's CPU awake to run it meanwhile.
TEST(SupervisorRaceTest, CleanExitPreemptedBeforeSysExitIsNotMissed) {
  constexpr uint64_t kSlice = 2'000;
  int raced = 0;
  for (uint64_t spin = 0; spin < kSlice; ++spin) {
    hw::Machine machine(hw::Machine::Config{.phys_pages = 64, .name = "race", .cpus = 2});
    Aegis kernel(machine, Aegis::Config{.slice_cycles = kSlice});
    std::vector<ChildSpec> specs;
    specs.push_back({
        .name = "quick",
        .body = [spin](exos::Process& p) { p.machine().Charge(spin); },
        .options = {.cpu_mask = 2},
        .policy = RestartPolicy::kNever,
    });
    Supervisor sup(kernel, std::move(specs));
    // Shares CPU 1, so a child preempted in its wake waits out a slice.
    exos::Process neighbour(
        kernel,
        [](exos::Process& p) {
          for (int i = 0; i < 300; ++i) {
            p.machine().Charge(20);
          }
        },
        {.cpu_mask = 2});
    bool finished_first = false;
    exos::Process ticker(
        kernel,
        [&](exos::Process& p) {
          while (p.kernel().SysGetCycles() < 20 * kSlice) {
            p.kernel().SysSleep(kSlice / 20);
            finished_first = finished_first ||
                             (sup.finished() && kernel.EnvAlive(sup.status()[0].env));
          }
          // A missed exit leaves the supervisor blocked for good; end it
          // so the run returns and the check below reports the miss.
          (void)p.kernel().SysKillEnv(sup.id(), sup.process().env_cap());
        },
        {.cpu_mask = 1});
    kernel.Run();
    ASSERT_TRUE(sup.finished()) << "clean exit missed at spin " << spin;
    raced += finished_first ? 1 : 0;
  }
  EXPECT_GT(raced, 0) << "no run preempted the child inside its wake";
}

// The supervisor itself is killed mid-storm. The children run on
// unsupervised and exit; every audit (after each kill and pressure
// application, plus the final one) stays clean.
TEST_F(SupervisorTest, SupervisorKilledMidStormLeavesTheLedgerClean) {
  int children_done = 0;
  std::vector<ChildSpec> specs;
  for (int c = 0; c < 2; ++c) {
    specs.push_back({
        .name = "holder",
        .body =
            [&](exos::Process& p) {
              for (int i = 0; i < 8; ++i) {
                ASSERT_TRUE(p.kernel().SysAllocPage().ok());
              }
              while (p.kernel().SysGetCycles() < 1'000'000) {
                p.kernel().SysSleep(25'000);
                (void)p.kernel().SysReadRepossessed();
              }
              ++children_done;
            },
        .policy = RestartPolicy::kNever,
    });
  }
  Supervisor sup(kernel_, std::move(specs));
  ASSERT_TRUE(sup.ok());

  aegis::PressurePlan pressure;
  pressure.floor.pages = 2;
  pressure.Storm(/*start=*/200'000, /*end=*/800'000, /*period=*/100'000, /*pages=*/2);
  kernel_.InstallPressurePlan(pressure);
  hw::FaultPlan faults;
  faults.KillEnvAt(400'000, sup.id());
  kernel_.InstallFaultPlan(faults);
  kernel_.Run();

  // The supervisor died mid-flight; its children finished without it.
  EXPECT_FALSE(sup.finished());
  EXPECT_FALSE(kernel_.EnvAlive(sup.id()));
  EXPECT_EQ(children_done, 2);
  EXPECT_EQ(kernel_.envs_killed(), 1u);
  EXPECT_GT(kernel_.pressure_stats()->bursts, 0u);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
  Aegis::AuditReport report = kernel_.AuditInvariants();
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
}

}  // namespace
}  // namespace xok
