#include "src/hw/fiber.h"

#include <gtest/gtest.h>
#include <xmmintrin.h>

#include <cfenv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/hw/mapping.h"

namespace xok::hw {
namespace {

TEST(Fiber, PingPongBetweenTwoFibers) {
  std::vector<int> trace;
  Fiber main_fiber;
  Fiber* child_ptr = nullptr;
  Fiber child([&] {
    trace.push_back(1);
    Fiber::Switch(*child_ptr, main_fiber);
    trace.push_back(3);
    Fiber::Switch(*child_ptr, main_fiber);
    for (;;) {
      Fiber::Switch(*child_ptr, main_fiber);
    }
  });
  child_ptr = &child;

  trace.push_back(0);
  Fiber::Switch(main_fiber, child);
  trace.push_back(2);
  Fiber::Switch(main_fiber, child);
  trace.push_back(4);

  EXPECT_EQ(trace, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Fiber, ThreeWayRoundRobinPreservesStacks) {
  Fiber main_fiber;
  Fiber* fibers[3] = {nullptr, nullptr, nullptr};
  int counters[3] = {0, 0, 0};
  std::unique_ptr<Fiber> storage[3];

  for (int i = 0; i < 3; ++i) {
    storage[i] = std::make_unique<Fiber>([&, i] {
      int local = 0;  // Stack-local state must survive switches.
      for (;;) {
        ++local;
        counters[i] = local;
        Fiber::Switch(*fibers[i], main_fiber);
      }
    });
    fibers[i] = storage[i].get();
  }

  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 3; ++i) {
      Fiber::Switch(main_fiber, *fibers[i]);
    }
  }
  EXPECT_EQ(counters[0], 5);
  EXPECT_EQ(counters[1], 5);
  EXPECT_EQ(counters[2], 5);
}

TEST(Fiber, DeepStackUsageSurvivesSwitch) {
  Fiber main_fiber;
  Fiber* child_ptr = nullptr;
  uint64_t result = 0;
  Fiber child([&] {
    // Use a chunk of stack to verify the fiber really has its own.
    volatile uint8_t buffer[64 * 1024];
    for (size_t i = 0; i < sizeof(buffer); ++i) {
      buffer[i] = static_cast<uint8_t>(i);
    }
    uint64_t sum = 0;
    for (size_t i = 0; i < sizeof(buffer); ++i) {
      sum += buffer[i];
    }
    result = sum;
    for (;;) {
      Fiber::Switch(*child_ptr, main_fiber);
    }
  });
  child_ptr = &child;
  Fiber::Switch(main_fiber, child);
  EXPECT_EQ(result, 64u * 1024u / 256u * (255u * 256u / 2u));
}

TEST(Fiber, FloatingPointControlStateIsPerFiber) {
  constexpr uint32_t kMxcsrRounding = 0x6000;  // MXCSR.RC
  constexpr uint32_t kMxcsrRoundUp = 0x4000;
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  Fiber main_fiber;
  Fiber* child_ptr = nullptr;
  int child_rounding = -1;
  uint32_t child_mxcsr_rounding = 0;
  Fiber child([&] {
    std::fesetround(FE_UPWARD);  // Sets both the x87 and the SSE mode.
    Fiber::Switch(*child_ptr, main_fiber);
    child_rounding = std::fegetround();  // Reads the x87 control word.
    child_mxcsr_rounding = _mm_getcsr() & kMxcsrRounding;
    for (;;) {
      Fiber::Switch(*child_ptr, main_fiber);
    }
  });
  child_ptr = &child;

  Fiber::Switch(main_fiber, child);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(_mm_getcsr() & kMxcsrRounding, 0u);
  Fiber::Switch(main_fiber, child);
  EXPECT_EQ(child_rounding, FE_UPWARD);
  EXPECT_EQ(child_mxcsr_rounding, kMxcsrRoundUp);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(_mm_getcsr() & kMxcsrRounding, 0u);
}

TEST(Fiber, NewFiberStartsOnA16ByteAlignedFrame) {
  Fiber main_fiber;
  Fiber* child_ptr = nullptr;
  uintptr_t address = 1;
  Fiber child([&] {
    alignas(16) volatile uint8_t local[16] = {};
    address = reinterpret_cast<uintptr_t>(&local[0]);
    for (;;) {
      Fiber::Switch(*child_ptr, main_fiber);
    }
  });
  child_ptr = &child;
  Fiber::Switch(main_fiber, child);
  EXPECT_EQ(address % 16, 0u);
}

TEST(Fiber, RecycledStackStartsFromACleanFirstFrame) {
  Fiber main_fiber;
  Fiber* child_ptr = nullptr;
  uintptr_t first_address = 0;
  {
    // Leaves its stack dirty: a suspended frame over scribbled locals, and
    // a rounding mode of its own.
    Fiber first([&] {
      volatile uint8_t local[256];
      for (volatile uint8_t& byte : local) {
        byte = 0xee;
      }
      first_address = reinterpret_cast<uintptr_t>(&local[0]);
      std::fesetround(FE_UPWARD);
      for (;;) {
        Fiber::Switch(*child_ptr, main_fiber);
      }
    });
    child_ptr = &first;
    Fiber::Switch(main_fiber, first);
  }  // Destroyed while suspended: its stack goes back to the free list.

  const uint64_t mappings = Mapping::made();
  int rounding = -1;
  uintptr_t address = 1;
  int counter = 0;
  Fiber second([&] {
    rounding = std::fegetround();
    alignas(16) volatile uint8_t aligned[16] = {};
    address = reinterpret_cast<uintptr_t>(&aligned[0]);
    int local = 0;  // Stack-local state must survive switches.
    for (;;) {
      ++local;
      counter = local;
      Fiber::Switch(*child_ptr, main_fiber);
    }
  });
  child_ptr = &second;
  EXPECT_EQ(Mapping::made(), mappings) << "the second fiber mapped a fresh stack";
  for (int round = 0; round < 5; ++round) {
    Fiber::Switch(main_fiber, second);
  }
  EXPECT_EQ(counter, 5);
  EXPECT_EQ(rounding, FE_TONEAREST);
  EXPECT_EQ(address % 16, 0u);
  // It runs on the first fiber's stack.
  const uintptr_t distance =
      address > first_address ? address - first_address : first_address - address;
  EXPECT_LT(distance, Fiber::kDefaultStackBytes);
}

// Recurses with a live buffer in every frame until the stack runs out; the
// buffer's address escapes, so the recursion cannot become a loop.
[[gnu::noinline]] uint8_t Recurse(volatile uint8_t* caller, uint64_t depth) {
  volatile uint8_t frame[512];
  frame[0] = static_cast<uint8_t>(caller[0] + 1);
  if (depth == ~uint64_t{0}) {
    return frame[0];
  }
  return static_cast<uint8_t>(Recurse(frame, depth + 1) + 1);
}

void OverflowAFiberStack(size_t stack_bytes) {
  Fiber main_fiber;
  Fiber* child_ptr = nullptr;
  Fiber child(
      [&] {
        volatile uint8_t seed[1] = {0};
        Recurse(seed, 0);
        for (;;) {
          Fiber::Switch(*child_ptr, main_fiber);
        }
      },
      stack_bytes);
  child_ptr = &child;
  Fiber::Switch(main_fiber, child);
  std::fprintf(stderr, "overflowed fiber returned\n");
}

// Overflows a default-size stack that an earlier fiber used. Exits cleanly,
// which fails the death test, if the stack was mapped afresh instead.
void OverflowARecycledFiberStack() {
  {
    Fiber earlier([] { std::abort(); });  // Never run.
  }
  const uint64_t mappings = Mapping::made();
  Fiber main_fiber;
  Fiber* child_ptr = nullptr;
  Fiber child([&] {
    volatile uint8_t seed[1] = {0};
    Recurse(seed, 0);
    for (;;) {
      Fiber::Switch(*child_ptr, main_fiber);
    }
  });
  child_ptr = &child;
  if (Mapping::made() != mappings) {
    std::exit(0);
  }
  Fiber::Switch(main_fiber, child);
  std::fprintf(stderr, "overflowed fiber returned\n");
}

TEST(FiberDeathTest, StackOverflowFaultsOnTheGuardPage) {
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_DEATH(OverflowAFiberStack(64 * 1024), "stack-overflow");
  EXPECT_DEATH(OverflowARecycledFiberStack(), "stack-overflow");
#else
  EXPECT_EXIT(OverflowAFiberStack(64 * 1024), ::testing::KilledBySignal(SIGSEGV), "");
  EXPECT_EXIT(OverflowARecycledFiberStack(), ::testing::KilledBySignal(SIGSEGV), "");
#endif
}

}  // namespace
}  // namespace xok::hw
