// Aegis's direct handoff (aegis.h, "Threading model"): the environment
// leaving a CPU picks the next one and switches straight to its fiber, and
// everything that charges between two turns stays on the CPU's kernel
// fiber. hw::Fiber::switches() pins the host work of each handoff; the
// paths that stay on the kernel fiber are pinned to the simulated cycle,
// with values taken from the kernel-fiber loop this handoff replaced, so
// the handoff provably moves no simulated value.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/aegis.h"
#include "src/exos/stride.h"
#include "src/hw/fault.h"

namespace xok::aegis {
namespace {

using hw::Fiber;

class AegisHandoffTest : public ::testing::Test {
 protected:
  AegisHandoffTest()
      : machine_(hw::Machine::Config{.phys_pages = 64, .name = "handoff"}), kernel_(machine_) {}

  EnvGrant Create(std::function<void()> entry) {
    EnvSpec spec;
    spec.entry = std::move(entry);
    Result<EnvGrant> grant = kernel_.CreateEnv(std::move(spec));
    EXPECT_TRUE(grant.ok());
    return *grant;
  }

  hw::Machine machine_;
  Aegis kernel_;
};

TEST_F(AegisHandoffTest, DirectedYieldFallingBackToTheYielderSwitchesNothing) {
  // B blocks at once; A donates its slice to the blocked B, so the pick
  // falls back to the slice scan, which finds A itself. The kernel-fiber
  // loop made two host switches here (A to the kernel fiber and back).
  EnvGrant b;
  uint64_t switches = ~0ULL;
  uint64_t cycles = 0;
  b = Create([&] { kernel_.SysBlock(); });
  Create([&] {
    const uint64_t s0 = Fiber::switches();
    const uint64_t t0 = machine_.clock().now();
    kernel_.SysYield(b.env);
    switches = Fiber::switches() - s0;
    cycles = machine_.clock().now() - t0;
    ASSERT_EQ(kernel_.SysWake(b.env, b.cap), Status::kOk);
  });
  kernel_.Run();
  EXPECT_EQ(switches, 0u);
  EXPECT_EQ(cycles, 84u);
}

TEST_F(AegisHandoffTest, AlternatingYieldsSwitchOncePerYield) {
  // Two runnable envs yield to each other on one CPU: each yield switches
  // straight from one env's fiber to the other's. The kernel-fiber loop
  // made two host switches per yield.
  struct Mark {
    int env;
    uint64_t switches;
    uint64_t cycle;
  };
  std::vector<Mark> marks;
  const auto yielder = [&](int id) {
    return [&, id] {
      for (int i = 0; i < 4; ++i) {
        marks.push_back({id, Fiber::switches(), machine_.clock().now()});
        kernel_.SysYield();
      }
    };
  };
  Create(yielder(0));
  Create(yielder(1));
  kernel_.Run();
  ASSERT_EQ(marks.size(), 8u);
  for (size_t i = 1; i < marks.size(); ++i) {
    EXPECT_EQ(marks[i].env, static_cast<int>(i % 2)) << "mark " << i;
    EXPECT_EQ(marks[i].switches - marks[i - 1].switches, 1u) << "mark " << i;
  }
  std::vector<uint64_t> cycles;
  for (const Mark& mark : marks) {
    cycles.push_back(mark.cycle);
  }
  EXPECT_EQ(cycles, (std::vector<uint64_t>{4, 74, 160, 246, 332, 418, 504, 590}));
}

TEST(AegisHandoff, StrideSlicesDonatedToABlockedClientSwitchNothing) {
  // A uniprocessor's stride scheduler donates every slice to a client that
  // sleeps through all of them, so every pick falls back to the scheduler
  // itself. The run's host switches do not grow with the slice count; the
  // kernel-fiber loop made two more per slice.
  const auto run = [](uint32_t slices, uint64_t* end_cycle) {
    hw::Machine machine(hw::Machine::Config{.phys_pages = 256, .name = "stride"});
    Aegis kernel(machine);
    EnvSpec client;
    client.entry = [&kernel] { kernel.SysSleep(kernel.slice_cycles() * 100); };
    Result<EnvGrant> grant = kernel.CreateEnv(std::move(client));
    EXPECT_TRUE(grant.ok());
    exos::SmpStrideScheduler stride(kernel);
    stride.AddClient(grant->env, 1, /*home_cpu=*/0);
    EXPECT_TRUE(stride.Start(slices));
    const uint64_t before = Fiber::switches();
    kernel.Run();
    EXPECT_EQ(stride.allocations()[0], slices);
    *end_cycle = machine.clock().now();
    return Fiber::switches() - before;
  };
  uint64_t end_10 = 0;
  uint64_t end_50 = 0;
  const uint64_t switches_10 = run(10, &end_10);
  const uint64_t switches_50 = run(50, &end_50);
  EXPECT_EQ(switches_50, switches_10);
  EXPECT_EQ(end_10, 2'500'094u);  // The client's alarm, then its exit.
  EXPECT_EQ(end_50, 2'500'094u);
}

TEST(AegisHandoff, AReleaseThatOwesANudgeRunsOnTheKernelFiber) {
  // X grows a slot onto CPU 1, which parked at boot (Y is pinned to CPU
  // 0), and yields on CPU 0. Its release owes CPU 1 an IPI, which charges,
  // so the kernel fiber sends it: CPU 0 goes on to Y, and CPU 1 wakes and
  // resumes X.
  hw::Machine machine(hw::Machine::Config{.phys_pages = 64, .name = "nudge", .cpus = 2});
  Aegis kernel(machine);
  uint64_t x_yield_at = 0;
  uint64_t x_back_at = 0;
  uint32_t x_back_on = ~0u;
  uint64_t y_start_at = 0;
  EnvSpec x;
  x.cpu_mask = 0b11;
  x.entry = [&] {
    ASSERT_EQ(kernel.SysAllocSlice(1), Status::kOk);
    machine.Charge(10'000);  // CPU 1 parks meanwhile.
    x_yield_at = machine.clock().now();
    kernel.SysYield();
    x_back_at = machine.clock().now();
    x_back_on = kernel.SysCurrentCpu();
  };
  ASSERT_TRUE(kernel.CreateEnv(std::move(x)).ok());
  EnvSpec y;
  y.cpu_mask = 0b01;
  y.entry = [&] {
    y_start_at = machine.clock().now();
    machine.Charge(50'000);
  };
  ASSERT_TRUE(kernel.CreateEnv(std::move(y)).ok());
  kernel.Run();
  EXPECT_EQ(x_back_on, 1u);
  EXPECT_EQ(x_yield_at, 10'060u);
  EXPECT_EQ(y_start_at, 10'134u);
  EXPECT_EQ(x_back_at, 10'172u);
  EXPECT_EQ(machine.cpu(0).clock().now(), 60'200u);
  EXPECT_EQ(machine.cpu(1).clock().now(), 10'204u);
  EXPECT_TRUE(kernel.AuditInvariants().ok());
}

TEST_F(AegisHandoffTest, AnEmptyPickParksOnTheKernelFiber) {
  // The only env sleeps: its pick finds nothing, so it hands the empty
  // pick to the kernel fiber, which clears the slice and parks until the
  // alarm. One switch each way, as with the kernel-fiber loop.
  uint64_t slept_at = 0;
  uint64_t woke_at = 0;
  uint64_t switches = ~0ULL;
  Create([&] {
    machine_.Charge(1'000);
    const uint64_t s0 = Fiber::switches();
    slept_at = machine_.clock().now();
    kernel_.SysSleep(5'000);
    woke_at = machine_.clock().now();
    switches = Fiber::switches() - s0;
  });
  kernel_.Run();
  EXPECT_EQ(switches, 2u);
  EXPECT_EQ(slept_at, 1'004u);
  EXPECT_EQ(woke_at, 6'068u);
}

TEST_F(AegisHandoffTest, TheLastExitEndsTheLoopOnTheKernelFiber) {
  // The last env's exit hands the loop's end to the kernel fiber, whose
  // final slice clear is the run's last charge.
  uint64_t exit_at = 0;
  Create([&] {
    machine_.Charge(1'000);
    exit_at = machine_.clock().now();
  });
  kernel_.Run();
  EXPECT_EQ(exit_at, 1'004u);
  EXPECT_EQ(machine_.clock().now(), 1'030u);
}

TEST_F(AegisHandoffTest, AnExitHandsOffFromTheDeadFiber) {
  // A exits; its dead fiber picks B and switches straight to it, and is
  // never resumed (a resumed exit aborts). The kernel-fiber loop made two
  // switches here.
  uint64_t exit_switches = 0;
  uint64_t b_switches = 0;
  uint64_t b_start_at = 0;
  Create([&] {
    exit_switches = Fiber::switches();
    kernel_.SysExit();
  });
  Create([&] {
    b_switches = Fiber::switches();
    b_start_at = machine_.clock().now();
  });
  kernel_.Run();
  EXPECT_EQ(b_switches - exit_switches, 1u);
  EXPECT_EQ(b_start_at, 32u);
}

TEST_F(AegisHandoffTest, ASuicideKillHandsOffFromTheDeadFiber) {
  // A kills itself; the reaped fiber hands off straight to B and is never
  // resumed. The kernel-fiber loop made two switches here.
  EnvGrant a;
  bool a_resumed = false;
  uint64_t kill_switches = 0;
  uint64_t b_switches = 0;
  uint64_t b_start_at = 0;
  a = Create([&] {
    kill_switches = Fiber::switches();
    (void)kernel_.SysKillEnv(a.env, a.cap);
    a_resumed = true;
  });
  Create([&] {
    b_switches = Fiber::switches();
    b_start_at = machine_.clock().now();
  });
  kernel_.Run();
  EXPECT_FALSE(a_resumed);
  EXPECT_EQ(kernel_.envs_killed(), 1u);
  EXPECT_EQ(b_switches - kill_switches, 1u);
  EXPECT_EQ(b_start_at, 352u);
  EXPECT_TRUE(kernel_.AuditInvariants().ok());
}

TEST_F(AegisHandoffTest, APowerCutAbandonsTheRunningFiber) {
  // The power fails while A computes: A's fiber hands the loop's end to
  // the kernel fiber from inside the interrupt and is never resumed; B,
  // runnable all along, never runs.
  uint64_t beats = 0;
  bool b_ran = false;
  Create([&] {
    for (;;) {
      machine_.Charge(1'000);
      ++beats;
    }
  });
  Create([&] { b_ran = true; });
  hw::FaultPlan plan;
  plan.PowerCutAt(12'500);
  kernel_.InstallFaultPlan(plan);
  kernel_.Run();
  EXPECT_TRUE(kernel_.powered_off());
  EXPECT_FALSE(b_ran);
  EXPECT_EQ(beats, 12u);
  EXPECT_EQ(machine_.clock().now(), 13'014u);
}

TEST_F(AegisHandoffTest, ASliceThatExpiresInTheMailboxLeavesTheEnvPreemptible) {
  // A donates a nearly spent slice to B with a message queued; B's
  // mailbox handler outlasts the slice, so the timer ends B's turn inside
  // BeginTurn and B is picked again later. B then computes, and must
  // still be preempted at each slice's end while A computes too: its
  // restored trap depth is its own, not the timer handler's.
  EnvGrant b;
  Create([&] {
    machine_.Charge(24'000);
    ASSERT_EQ(kernel_.SysPctSend(b.env, PctArgs{}), Status::kOk);
    kernel_.SysYield(b.env);
    for (int i = 0; i < 100; ++i) {
      machine_.Charge(1'000);
    }
  });
  EnvSpec spec;
  spec.handlers.pct_async = [&](const PctArgs&) { machine_.Charge(5'000); };
  spec.entry = [&] {
    for (int i = 0; i < 100; ++i) {
      machine_.Charge(1'000);
    }
  };
  Result<EnvGrant> grant = kernel_.CreateEnv(std::move(spec));
  ASSERT_TRUE(grant.ok());
  b = *grant;
  kernel_.Run();
  EXPECT_GE(kernel_.slices_of(b.env), 5u);
  EXPECT_TRUE(kernel_.AuditInvariants().ok());
}

}  // namespace
}  // namespace xok::aegis
