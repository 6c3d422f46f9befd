// Error paths and edge cases of the Ultrix-like baseline.
#include <gtest/gtest.h>

#include <vector>

#include "src/ultrix/ultrix.h"

namespace xok::ultrix {
namespace {

class UltrixEdgeTest : public ::testing::Test {
 protected:
  UltrixEdgeTest()
      : machine_(hw::Machine::Config{.phys_pages = 64, .name = "uxe"}), kernel_(machine_) {}

  void RunInProcess(std::function<void()> body) {
    ASSERT_TRUE(kernel_.CreateProcess(std::move(body)).ok());
    kernel_.Run();
  }

  hw::Machine machine_;
  Ultrix kernel_;
};

TEST_F(UltrixEdgeTest, MprotectOnUnmappedFails) {
  RunInProcess([&] {
    EXPECT_EQ(kernel_.SysMprotect(0x500000, 1, kProtNone), Status::kErrNotFound);
  });
}

TEST_F(UltrixEdgeTest, MincoreOnUnmappedFails) {
  RunInProcess([&] {
    EXPECT_FALSE(kernel_.SysMincoreDirty(0x500000).ok());
  });
}

TEST_F(UltrixEdgeTest, SleepAdvancesClock) {
  RunInProcess([&] {
    const uint64_t t0 = machine_.clock().now();
    kernel_.SysSleep(123'456);
    EXPECT_GE(machine_.clock().now() - t0, 123'456u);
  });
}

TEST_F(UltrixEdgeTest, SleepWakesAtItsExactCycle) {
  // Pins the idle path: the kernel parks with only the alarm pending, so
  // the wake cycle is the alarm's due cycle plus the fixed charges of the
  // interrupt, the wakeup, the dispatch and the syscall exit.
  uint64_t woke_at = 0;
  RunInProcess([&] {
    kernel_.SysSleep(123'456);
    woke_at = machine_.clock().now();
  });
  EXPECT_EQ(woke_at, 124'016u);
}

TEST(UltrixDeathTest, BlockedProcessWithNothingPendingAbortsAsHang) {
  // The only process blocks on a pipe whose write end it holds, so no
  // event can ever wake it: the machine's World quiesces with the kernel
  // parked, which RunCpus reports as a hang.
  EXPECT_DEATH(
      {
        hw::Machine machine(hw::Machine::Config{.phys_pages = 64, .name = "uxh"});
        Ultrix kernel(machine);
        (void)kernel.CreateProcess([&] {
          Result<std::pair<int, int>> fds = kernel.SysPipe();
          std::vector<uint8_t> buf(1);
          (void)kernel.SysRead(fds->first, buf);
        });
        kernel.Run();
      },
      "hang");
}

TEST_F(UltrixEdgeTest, ReadWriteOnBadFdFails) {
  RunInProcess([&] {
    std::vector<uint8_t> buf(4);
    EXPECT_FALSE(kernel_.SysRead(99, buf).ok());
    EXPECT_EQ(kernel_.SysWrite(99, buf), Status::kErrInvalidArgs);
    EXPECT_EQ(kernel_.SysClose(99), Status::kErrInvalidArgs);
  });
}

TEST_F(UltrixEdgeTest, ReadFromWriteEndFails) {
  RunInProcess([&] {
    Result<std::pair<int, int>> fds = kernel_.SysPipe();
    ASSERT_TRUE(fds.ok());
    std::vector<uint8_t> buf(4);
    EXPECT_FALSE(kernel_.SysRead(fds->second, buf).ok());   // Write end.
    EXPECT_EQ(kernel_.SysWrite(fds->first, buf), Status::kErrInvalidArgs);  // Read end.
  });
}

TEST_F(UltrixEdgeTest, PortConflictRejected) {
  RunInProcess([&] {
    Result<int> a = kernel_.SysSocketUdp();
    Result<int> b = kernel_.SysSocketUdp();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(kernel_.SysBindPort(*a, 80), Status::kOk);
    EXPECT_EQ(kernel_.SysBindPort(*b, 80), Status::kErrAlreadyExists);
  });
}

TEST_F(UltrixEdgeTest, SendWithoutNicUnsupported) {
  RunInProcess([&] {
    Result<int> fd = kernel_.SysSocketUdp();
    ASSERT_TRUE(fd.ok());
    std::vector<uint8_t> payload = {1};
    EXPECT_EQ(kernel_.SysSendTo(*fd, 1, 2, payload), Status::kErrUnsupported);
  });
}

TEST_F(UltrixEdgeTest, SocketOpsOnPipeFdFail) {
  RunInProcess([&] {
    Result<std::pair<int, int>> fds = kernel_.SysPipe();
    ASSERT_TRUE(fds.ok());
    std::vector<uint8_t> payload = {1};
    EXPECT_EQ(kernel_.SysBindPort(fds->first, 80), Status::kErrInvalidArgs);
    EXPECT_EQ(kernel_.SysSendTo(fds->first, 1, 2, payload), Status::kErrInvalidArgs);
  });
}

TEST_F(UltrixEdgeTest, SignalWithoutHandlerSkipsFaultingAccess) {
  RunInProcess([&] {
    ASSERT_EQ(machine_.StoreWord(0x100000, 1), Status::kOk);
    ASSERT_EQ(kernel_.SysMprotect(0x100000, 1, kProtNone), Status::kOk);
    EXPECT_FALSE(machine_.LoadWord(0x100000).ok());  // No handler: access fails.
  });
}

TEST_F(UltrixEdgeTest, DirtyBitClearedAcrossProtectCycles) {
  RunInProcess([&] {
    ASSERT_EQ(machine_.StoreWord(0x200000, 1), Status::kOk);
    EXPECT_TRUE(*kernel_.SysMincoreDirty(0x200000));
    // mprotect does not clear dirty (matches mincore semantics).
    ASSERT_EQ(kernel_.SysMprotect(0x200000, 1, kProtRead), Status::kOk);
    EXPECT_TRUE(*kernel_.SysMincoreDirty(0x200000));
  });
}

TEST_F(UltrixEdgeTest, ManyProcessesRoundRobinFairly) {
  constexpr int kProcs = 6;
  uint64_t progress[kProcs] = {};
  for (int i = 0; i < kProcs; ++i) {
    ASSERT_TRUE(kernel_.CreateProcess([&, i] {
      for (int step = 0; step < 40; ++step) {
        machine_.Charge(kQuantumCycles / 4);
        ++progress[i];
      }
    }).ok());
  }
  kernel_.Run();
  for (int i = 0; i < kProcs; ++i) {
    EXPECT_EQ(progress[i], 40u) << i;
  }
}

}  // namespace
}  // namespace xok::ultrix
