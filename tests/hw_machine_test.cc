#include "src/hw/machine.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/hw/trap.h"

namespace xok::hw {
namespace {

// A minimal "identity-mapping" kernel used to exercise the machine: TLB
// misses are refilled with vpn == pfn; everything else is recorded.
class FakeKernel : public TrapSink {
 public:
  explicit FakeKernel(Machine& machine) : machine_(machine), priv_(machine.InstallKernel(this)) {}

  TrapOutcome OnException(TrapFrame& frame) override {
    exceptions.push_back(frame.type);
    switch (frame.type) {
      case ExceptionType::kTlbMissLoad:
      case ExceptionType::kTlbMissStore: {
        if (!refill) {
          return TrapOutcome::kSkip;
        }
        TlbEntry entry;
        entry.vpn = VpnOf(frame.bad_vaddr);
        entry.asid = priv_.asid();
        entry.pfn = entry.vpn;
        entry.valid = true;
        entry.writable = writable_pages;
        priv_.TlbWriteRandom(entry);
        return TrapOutcome::kRetry;
      }
      case ExceptionType::kTlbModify: {
        if (!fix_modify) {
          return TrapOutcome::kSkip;
        }
        TlbEntry entry;
        entry.vpn = VpnOf(frame.bad_vaddr);
        entry.asid = priv_.asid();
        entry.pfn = entry.vpn;
        entry.valid = true;
        entry.writable = true;
        priv_.TlbWriteRandom(entry);
        return TrapOutcome::kRetry;
      }
      default:
        return TrapOutcome::kSkip;
    }
  }

  void OnInterrupt(InterruptSource source, uint64_t payload) override {
    interrupts.push_back({source, payload});
    interrupt_cycles.push_back(machine_.clock().now());
  }

  Machine& machine_;
  PrivPort& priv_;
  std::vector<ExceptionType> exceptions;
  std::vector<std::pair<InterruptSource, uint64_t>> interrupts;
  std::vector<uint64_t> interrupt_cycles;  // Clock as each handler starts.
  bool refill = true;
  bool fix_modify = true;
  bool writable_pages = true;
};

class MachineTest : public ::testing::Test {
 protected:
  MachineTest() : machine_(Machine::Config{.phys_pages = 64, .name = "t0"}), kernel_(machine_) {}

  Machine machine_;
  FakeKernel kernel_;
};

TEST_F(MachineTest, ChargeAdvancesClock) {
  const uint64_t before = machine_.clock().now();
  machine_.Charge(100);
  EXPECT_EQ(machine_.clock().now(), before + 100);
}

TEST_F(MachineTest, LoadFaultsOnceThenHits) {
  ASSERT_TRUE(machine_.StoreWord(0x2000, 0xdeadbeef) == Status::kOk);
  Result<uint32_t> value = machine_.LoadWord(0x2000);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 0xdeadbeefu);
  // One miss for the store; the load hits the now-present entry.
  EXPECT_EQ(kernel_.exceptions.size(), 1u);
  EXPECT_EQ(kernel_.exceptions[0], ExceptionType::kTlbMissStore);
}

TEST_F(MachineTest, StoreToReadOnlyPageRaisesTlbModify) {
  kernel_.writable_pages = false;
  ASSERT_TRUE(machine_.LoadWord(0x3000).ok());  // Establish a read-only mapping.
  kernel_.exceptions.clear();
  ASSERT_TRUE(machine_.StoreWord(0x3000, 1) == Status::kOk);
  ASSERT_GE(kernel_.exceptions.size(), 1u);
  EXPECT_EQ(kernel_.exceptions[0], ExceptionType::kTlbModify);
}

TEST_F(MachineTest, UnresolvedMissFailsTheAccess) {
  kernel_.refill = false;
  Result<uint32_t> value = machine_.LoadWord(0x4000);
  EXPECT_FALSE(value.ok());
  EXPECT_EQ(value.status(), Status::kErrAccessDenied);
}

TEST_F(MachineTest, UnalignedAccessRaisesAddressError) {
  Result<uint32_t> value = machine_.LoadWord(0x2001);
  EXPECT_FALSE(value.ok());
  ASSERT_EQ(kernel_.exceptions.size(), 1u);
  EXPECT_EQ(kernel_.exceptions[0], ExceptionType::kAddressError);
}

TEST_F(MachineTest, OutOfRangePhysicalIsBusError) {
  // 64 pages of RAM; vpn 63 maps fine, vpn 64 maps beyond the end.
  Result<uint32_t> ok = machine_.LoadWord(63u << kPageShift);
  EXPECT_TRUE(ok.ok());
  Result<uint32_t> bad = machine_.LoadWord(64u << kPageShift);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(kernel_.exceptions.back(), ExceptionType::kBusError);
}

// Host pages of `bytes` the host kernel reports resident. A page that was
// only read counts too (it maps the shared zero page), so callers assert
// only about pages nothing has accessed.
size_t ResidentHostPages(std::span<uint8_t> bytes) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> residency((bytes.size() + page - 1) / page);
  EXPECT_EQ(mincore(bytes.data(), bytes.size(), residency.data()), 0);
  return static_cast<size_t>(
      std::count_if(residency.begin(), residency.end(), [](unsigned char r) { return r & 1; }));
}

TEST(PhysMemTest, FreshMemoryIsUnbackedAndBacksOnlyWrittenPages) {
  Machine machine(Machine::Config{.phys_pages = 4096, .name = "lazy"});
  FakeKernel kernel(machine);
  PhysMem& mem = machine.mem();
  const std::span<uint8_t> frames = mem.RangeSpan(0, mem.page_count());
  EXPECT_EQ(ResidentHostPages(frames), 0u);

  // Identity-mapped store into frame 7: exactly that frame gets backed.
  ASSERT_EQ(machine.StoreWord(7u << kPageShift, 0xfeedf00d), Status::kOk);
  EXPECT_EQ(ResidentHostPages(frames), 1u);

  EXPECT_EQ(mem.ReadWord(7u << kPageShift), 0xfeedf00du);
  Result<uint32_t> untouched = machine.LoadWord(4095u << kPageShift);
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(*untouched, 0u);
  EXPECT_EQ(mem.PageSpan(100)[3], 0u);
  EXPECT_EQ(mem.ReadWord(kPageBytes * 4095 + kPageBytes - 4), 0u);
}

TEST(PhysMemDeathTest, OverrunPastTheLastFrameFaults) {
  // The byte after the last frame is a guard page, not another object: a
  // host-side overrun faults in every build, sanitized or not.
  EXPECT_DEATH(
      {
        PhysMem mem(64);
        const std::span<uint8_t> frames = mem.RangeSpan(0, mem.page_count());
        volatile uint8_t* past_end = frames.data() + frames.size();
        *past_end = 1;
      },
      "");
}

TEST_F(MachineTest, AddOverflowTrapsOnlyOnOverflow) {
  Result<int32_t> fine = machine_.AddOverflow(1, 2);
  ASSERT_TRUE(fine.ok());
  EXPECT_EQ(*fine, 3);
  EXPECT_TRUE(kernel_.exceptions.empty());

  Result<int32_t> overflow = machine_.AddOverflow(0x7fffffff, 1);
  EXPECT_FALSE(overflow.ok());
  ASSERT_EQ(kernel_.exceptions.size(), 1u);
  EXPECT_EQ(kernel_.exceptions[0], ExceptionType::kOverflow);
}

TEST_F(MachineTest, CoprocTrapsWhenDisabled) {
  EXPECT_TRUE(machine_.CoprocOp() != Status::kOk);
  ASSERT_EQ(kernel_.exceptions.size(), 1u);
  EXPECT_EQ(kernel_.exceptions[0], ExceptionType::kCoprocUnusable);

  kernel_.priv_.SetCoprocEnabled(true);
  kernel_.exceptions.clear();
  EXPECT_TRUE(machine_.CoprocOp() == Status::kOk);
  EXPECT_TRUE(kernel_.exceptions.empty());
}

TEST_F(MachineTest, SliceTimerFiresAtChargeBoundary) {
  kernel_.priv_.SetSliceDeadline(machine_.clock().now() + 1000);
  machine_.Charge(500);
  EXPECT_TRUE(kernel_.interrupts.empty());
  machine_.Charge(600);
  ASSERT_EQ(kernel_.interrupts.size(), 1u);
  EXPECT_EQ(kernel_.interrupts[0].first, InterruptSource::kTimer);
  // One-shot: no refire without re-arming.
  machine_.Charge(5000);
  EXPECT_EQ(kernel_.interrupts.size(), 1u);
}

TEST_F(MachineTest, ScheduledEventDeliversWithPayload) {
  kernel_.priv_.ScheduleEvent(2000, InterruptSource::kDiskDone, 77);
  machine_.Charge(1999);
  EXPECT_TRUE(kernel_.interrupts.empty());
  machine_.Charge(1);
  ASSERT_EQ(kernel_.interrupts.size(), 1u);
  EXPECT_EQ(kernel_.interrupts[0].second, 77u);
}

TEST_F(MachineTest, InterruptsMaskedWhileDisabled) {
  kernel_.priv_.ScheduleEvent(10, InterruptSource::kDiskDone, 1);
  kernel_.priv_.SetInterruptsEnabled(false);
  machine_.Charge(1000);
  EXPECT_TRUE(kernel_.interrupts.empty());
  kernel_.priv_.SetInterruptsEnabled(true);
  machine_.Charge(1);
  EXPECT_EQ(kernel_.interrupts.size(), 1u);
}

TEST_F(MachineTest, WaitForInterruptAdvancesToNextEvent) {
  machine_.RunCpus({[&] {
    kernel_.priv_.ScheduleEvent(12345, InterruptSource::kDiskDone, 5);
    const uint64_t before = machine_.clock().now();
    machine_.WaitForInterrupt();
    EXPECT_GE(machine_.clock().now(), before + 12345);
    ASSERT_EQ(kernel_.interrupts.size(), 1u);
  }});
}

TEST(MachineDeathTest, WaitForInterruptOutsideAnyWorldAborts) {
  // Only a World advances an idle clock: a host-driven wait, outside
  // RunCpus and World::Run, is a misuse of the machine.
  EXPECT_DEATH(
      {
        Machine machine(Machine::Config{.phys_pages = 16, .name = "bare"});
        FakeKernel kernel(machine);
        kernel.priv_.ScheduleEvent(100, InterruptSource::kDiskDone, 1);
        machine.WaitForInterrupt();
      },
      "WaitForInterrupt outside any World");
}

TEST_F(MachineTest, AccessChargesCycles) {
  (void)machine_.StoreWord(0x2000, 1);  // Prime the mapping.
  const uint64_t before = machine_.clock().now();
  (void)machine_.LoadWord(0x2000);
  const uint64_t hit_cost = machine_.clock().now() - before;
  EXPECT_GT(hit_cost, 0u);
  EXPECT_LT(hit_cost, Instr(10));  // A hit is cheap.
}

TEST_F(MachineTest, TlbMissCostsMoreThanHit) {
  (void)machine_.LoadWord(0x2000);
  const uint64_t t0 = machine_.clock().now();
  (void)machine_.LoadWord(0x2000);  // Hit.
  const uint64_t hit = machine_.clock().now() - t0;
  const uint64_t t1 = machine_.clock().now();
  (void)machine_.LoadWord(0x9000);  // Miss + refill.
  const uint64_t miss = machine_.clock().now() - t1;
  EXPECT_GT(miss, hit);
}

TEST_F(MachineTest, SliceDeadlineAtCurrentCycleFiresOnNextCharge) {
  // Regression: a deadline equal to the current cycle (including cycle 0)
  // must still raise kTimer at the next charge boundary, not be treated as
  // "unarmed". The original code used deadline == 0 as the disarmed state.
  kernel_.priv_.SetSliceDeadline(machine_.clock().now());
  EXPECT_TRUE(kernel_.priv_.slice_armed());
  EXPECT_TRUE(kernel_.interrupts.empty());
  machine_.Charge(1);
  ASSERT_EQ(kernel_.interrupts.size(), 1u);
  EXPECT_EQ(kernel_.interrupts[0].first, InterruptSource::kTimer);
  EXPECT_FALSE(kernel_.priv_.slice_armed());
}

TEST_F(MachineTest, SliceDeadlineInThePastFiresOnNextCharge) {
  machine_.Charge(500);
  kernel_.priv_.SetSliceDeadline(100);  // Already behind the clock.
  machine_.Charge(1);
  ASSERT_EQ(kernel_.interrupts.size(), 1u);
  EXPECT_EQ(kernel_.interrupts[0].first, InterruptSource::kTimer);
}

TEST_F(MachineTest, ClearSliceDeadlineDisarms) {
  kernel_.priv_.SetSliceDeadline(machine_.clock().now() + 10);
  kernel_.priv_.ClearSliceDeadline();
  EXPECT_FALSE(kernel_.priv_.slice_armed());
  machine_.Charge(1000);
  EXPECT_TRUE(kernel_.interrupts.empty());
}

TEST_F(MachineTest, EveryLocalDropOfTheNextDueCycleDeliversOnTime) {
  // A CPU looks for due interrupts only once its clock reaches a bound on
  // its next due cycle. Each step below lowers that cycle below one already
  // pending, and each interrupt must still start at the first charge
  // boundary at or past its due cycle.
  PrivPort& priv = kernel_.priv_;
  auto burn_to = [this](uint64_t cycle) {
    while (machine_.clock().now() < cycle) {
      machine_.Charge(7);
    }
  };
  priv.ScheduleEvent(1'000'000, InterruptSource::kAlarm, 0);  // Pending throughout.
  // A local event due before the pending one.
  priv.ScheduleEvent(1'000, InterruptSource::kAlarm, 1);
  burn_to(2'000);
  // A slice deadline re-armed earlier.
  priv.SetSliceDeadline(9'000);
  burn_to(3'000);
  priv.SetSliceDeadline(4'000);
  burn_to(6'000);
  // A slice deadline armed in the past.
  priv.SetSliceDeadline(5'000);
  machine_.Charge(7);
  // A backlog queued while interrupts are off, due once they are back on.
  priv.SetInterruptsEnabled(false);
  priv.ScheduleEvent(100, InterruptSource::kDiskDone, 2);
  priv.ScheduleEvent(200, InterruptSource::kDiskDone, 3);
  burn_to(8'000);
  priv.SetInterruptsEnabled(true);
  machine_.Charge(7);
  // The backlog's second event starts first: the first one's exception
  // raise is charged before its trap depth is taken, and that charge
  // delivers what else is due.
  using Ev = std::pair<InterruptSource, uint64_t>;
  EXPECT_EQ(kernel_.interrupts,
            (std::vector<Ev>{{InterruptSource::kAlarm, 1},
                             {InterruptSource::kTimer, 0},
                             {InterruptSource::kTimer, 0},
                             {InterruptSource::kDiskDone, 3},
                             {InterruptSource::kDiskDone, 2}}));
  EXPECT_EQ(kernel_.interrupt_cycles, (std::vector<uint64_t>{1009, 4014, 6023, 8028, 8032}));
}

TEST(MachineAsid, SeparateAsidsDoNotShareMappings) {
  Machine machine(Machine::Config{.phys_pages = 64, .name = "t1"});
  FakeKernel kernel(machine);
  ASSERT_TRUE(machine.StoreWord(0x2000, 0x11) == Status::kOk);
  kernel.priv_.SetAsid(5);
  kernel.exceptions.clear();
  ASSERT_TRUE(machine.LoadWord(0x2000).ok());
  // The new address space had to take its own miss.
  ASSERT_FALSE(kernel.exceptions.empty());
  EXPECT_EQ(kernel.exceptions[0], ExceptionType::kTlbMissLoad);
}

// --- SMP: per-CPU state, the interleaver, IPIs, remote TLB flushes ---

class SmpMachineTest : public ::testing::Test {
 protected:
  SmpMachineTest()
      : machine_(Machine::Config{.phys_pages = 64, .name = "smp", .cpus = 4}),
        kernel_(machine_) {}

  Machine machine_;
  FakeKernel kernel_;
};

TEST_F(SmpMachineTest, TopologyIsVisible) {
  EXPECT_EQ(machine_.cpu_count(), 4u);
  EXPECT_EQ(machine_.current_cpu(), 0u);  // Host-side code runs as CPU 0.
  EXPECT_EQ(kernel_.priv_.cpu_count(), 4u);
}

TEST_F(SmpMachineTest, RunCpusInterleavesByLocalClock) {
  // Each body charges in different step sizes; the interleaver must keep
  // the local clocks within one charge of each other, so the order of
  // completion follows total work, not body index.
  std::vector<uint32_t> finish_order;
  std::vector<std::function<void()>> bodies;
  const uint64_t work[4] = {400, 100, 300, 200};
  for (uint32_t k = 0; k < 4; ++k) {
    bodies.push_back([this, k, &work, &finish_order]() {
      for (uint64_t done = 0; done < work[k]; done += 50) {
        machine_.Charge(50);
      }
      finish_order.push_back(k);
    });
  }
  machine_.RunCpus(std::move(bodies));
  ASSERT_EQ(finish_order.size(), 4u);
  EXPECT_EQ(finish_order[0], 1u);  // Least work finishes first...
  EXPECT_EQ(finish_order[3], 0u);  // ...most work last.
  EXPECT_EQ(machine_.MaxCpuCycle(), 400u);
  EXPECT_EQ(machine_.cpu(1).clock().now(), 100u);
}

TEST_F(SmpMachineTest, EachCpuHasItsOwnTlb) {
  std::vector<std::function<void()>> bodies;
  bodies.push_back([this]() { (void)machine_.LoadWord(0x2000); });
  bodies.push_back([this]() { (void)machine_.LoadWord(0x2000); });
  bodies.push_back([] {});
  bodies.push_back([] {});
  machine_.RunCpus(std::move(bodies));
  // Each CPU took its own miss for the same address: TLBs are private.
  // (A shared TLB would leave the second access a hit.)
  size_t misses = 0;
  for (ExceptionType type : kernel_.exceptions) {
    if (type == ExceptionType::kTlbMissLoad) {
      ++misses;
    }
  }
  EXPECT_EQ(misses, 2u);
  // And the entries really landed in different TLBs.
  EXPECT_NE(machine_.cpu(0).tlb().Lookup(2, 0), nullptr);
  EXPECT_NE(machine_.cpu(1).tlb().Lookup(2, 0), nullptr);
  EXPECT_EQ(machine_.cpu(2).tlb().Lookup(2, 0), nullptr);
}

TEST_F(SmpMachineTest, SendIpiDeliversToTargetCpu) {
  std::vector<std::function<void()>> bodies;
  bodies.push_back([this]() { kernel_.priv_.SendIpi(2, 42); });
  bodies.push_back([] {});
  bodies.push_back([this]() {
    // Park until the IPI arrives.
    machine_.WaitForInterrupt();
  });
  bodies.push_back([] {});
  machine_.RunCpus(std::move(bodies));
  ASSERT_EQ(kernel_.interrupts.size(), 1u);
  EXPECT_EQ(kernel_.interrupts[0].first, InterruptSource::kIpi);
  EXPECT_EQ(kernel_.interrupts[0].second, 42u);
}

TEST_F(SmpMachineTest, CpuParkedReflectsWaitForInterrupt) {
  bool observed_parked = false;
  std::vector<std::function<void()>> bodies;
  bodies.push_back([this, &observed_parked]() {
    machine_.Charge(100);  // Give CPU 1 time to park.
    observed_parked = machine_.CpuParked(1);
    kernel_.priv_.SendIpi(1, 0);  // Wake it so RunCpus can finish.
  });
  bodies.push_back([this]() { machine_.WaitForInterrupt(); });
  bodies.push_back([] {});
  bodies.push_back([] {});
  machine_.RunCpus(std::move(bodies));
  EXPECT_TRUE(observed_parked);
  EXPECT_FALSE(machine_.CpuParked(1));
}

TEST_F(SmpMachineTest, RemoteFlushDropsOnlyTheTargetsEntries) {
  std::vector<std::function<void()>> bodies;
  uint32_t dropped_live = 0;
  uint32_t dropped_again = 0;
  bodies.push_back([this]() {
    (void)machine_.StoreWord(0x2000, 7);  // vpn 2 -> pfn 2 on CPU 0.
    machine_.Charge(200);                 // Let CPU 1 map it too, then flush.
  });
  bodies.push_back([this, &dropped_live, &dropped_again]() {
    (void)machine_.LoadWord(0x2000);
    machine_.Charge(50);
    dropped_live = kernel_.priv_.TlbRemoteFlushPfn(0, 2);
    dropped_again = kernel_.priv_.TlbRemoteFlushPfn(0, 2);
    // CPU 1's own entry survives its flush of CPU 0.
    EXPECT_TRUE(machine_.LoadWord(0x2000).ok());
  });
  bodies.push_back([] {});
  bodies.push_back([] {});
  const size_t misses_before = kernel_.exceptions.size();
  machine_.RunCpus(std::move(bodies));
  EXPECT_EQ(dropped_live, 1u);
  EXPECT_EQ(dropped_again, 0u);  // Idempotent once dropped.
  // CPU 0's store missed, CPU 1's load missed; the post-flush re-read on
  // CPU 1 hit its still-private entry.
  EXPECT_EQ(kernel_.exceptions.size() - misses_before, 2u);
}

TEST_F(SmpMachineTest, ScheduledEventsStayOnTheCallingCpu) {
  std::vector<std::function<void()>> bodies;
  uint32_t interrupted_cpu = ~0u;
  bodies.push_back([this]() { machine_.Charge(100); });
  bodies.push_back([this, &interrupted_cpu]() {
    kernel_.priv_.ScheduleEvent(10, InterruptSource::kDiskDone, 1);
    machine_.Charge(100);
    if (!kernel_.interrupts.empty()) {
      interrupted_cpu = machine_.current_cpu();
    }
  });
  bodies.push_back([] {});
  bodies.push_back([] {});
  machine_.RunCpus(std::move(bodies));
  EXPECT_EQ(interrupted_cpu, 1u);
}

TEST(SmpMachineDeathTest, StandaloneHangAborts) {
  // Every CPU parks with nothing pending, so the standalone machine's
  // private World quiesces; RunCpus must report the hang rather than
  // return as if the bodies had finished.
  EXPECT_DEATH(
      {
        Machine machine(Machine::Config{.phys_pages = 64, .name = "hung", .cpus = 2});
        FakeKernel kernel(machine);
        std::vector<std::function<void()>> bodies;
        for (uint32_t k = 0; k < 2; ++k) {
          bodies.push_back([&machine] {
            for (;;) {
              machine.WaitForInterrupt();
            }
          });
        }
        machine.RunCpus(std::move(bodies));
      },
      "hang");
}

}  // namespace
}  // namespace xok::hw
