#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/hw/disk.h"
#include "src/hw/framebuffer.h"
#include "src/hw/machine.h"
#include "src/hw/mapping.h"
#include "src/hw/nic.h"
#include "src/hw/phys_mem.h"
#include "src/hw/world.h"

namespace xok::hw {
namespace {

class RecordingKernel : public TrapSink {
 public:
  explicit RecordingKernel(Machine& machine) : priv_(machine.InstallKernel(this)) {}

  TrapOutcome OnException(TrapFrame&) override { return TrapOutcome::kSkip; }
  void OnInterrupt(InterruptSource source, uint64_t payload) override {
    events.push_back({source, payload});
  }

  PrivPort& priv_;
  std::vector<std::pair<InterruptSource, uint64_t>> events;
};

class DeviceTest : public ::testing::Test {
 protected:
  DeviceTest()
      : machine_(Machine::Config{.phys_pages = 16, .name = "dev"}),
        kernel_(machine_),
        fb_(machine_, 64, 48),
        disk_(machine_, 128) {}

  // Runs `body` as the machine's CPU, so WaitForInterrupt can park on the
  // World that RunCpus provides.
  void RunOnCpu(std::function<void()> body) { machine_.RunCpus({std::move(body)}); }

  Machine machine_;
  RecordingKernel kernel_;
  Framebuffer fb_;
  Disk disk_;
};

TEST_F(DeviceTest, FramebufferRejectsWriteWithoutOwnership) {
  EXPECT_EQ(fb_.WritePixel(/*owner_tag=*/7, 3, 3, 0xff0000ff), Status::kErrAccessDenied);
  EXPECT_EQ(fb_.ReadPixel(3, 3), 0u);
}

TEST_F(DeviceTest, FramebufferAllowsOwnerWrites) {
  ASSERT_EQ(fb_.SetTileOwner(0, 0, 7), Status::kOk);
  EXPECT_EQ(fb_.WritePixel(7, 3, 3, 0xff0000ff), Status::kOk);
  EXPECT_EQ(fb_.ReadPixel(3, 3), 0xff0000ffu);
  // A different tag on the same tile is rejected (hardware tag check).
  EXPECT_EQ(fb_.WritePixel(8, 4, 4, 1), Status::kErrAccessDenied);
}

TEST_F(DeviceTest, FramebufferTileGranularity) {
  ASSERT_EQ(fb_.SetTileOwner(1, 0, 9), Status::kOk);  // Pixels x in [16,32), y in [0,16).
  EXPECT_EQ(fb_.WritePixel(9, 16, 0, 5), Status::kOk);
  EXPECT_EQ(fb_.WritePixel(9, 15, 0, 5), Status::kErrAccessDenied);  // Tile (0,0).
}

TEST_F(DeviceTest, FramebufferBoundsChecked) {
  EXPECT_EQ(fb_.WritePixel(7, 64, 0, 1), Status::kErrOutOfRange);
  EXPECT_EQ(fb_.SetTileOwner(99, 0, 1), Status::kErrOutOfRange);
}

TEST_F(DeviceTest, DiskWriteThenReadRoundTrips) {
  RunOnCpu([&] {
    // Fill frame 2 with a pattern, write it to block 5, clear, read back.
    auto frame = machine_.mem().PageSpan(2);
    for (size_t i = 0; i < frame.size(); ++i) {
      frame[i] = static_cast<uint8_t>(i * 3);
    }
    Result<uint64_t> write_id = disk_.SubmitWrite(5, 2);
    ASSERT_TRUE(write_id.ok());
    machine_.WaitForInterrupt();
    ASSERT_EQ(kernel_.events.size(), 1u);
    EXPECT_EQ(kernel_.events[0].second, *write_id);
    ASSERT_TRUE(disk_.Complete(*write_id).ok());

    std::fill(frame.begin(), frame.end(), uint8_t{0});
    Result<uint64_t> read_id = disk_.SubmitRead(5, 2);
    ASSERT_TRUE(read_id.ok());
    machine_.WaitForInterrupt();
    ASSERT_TRUE(disk_.Complete(*read_id).ok());
    for (size_t i = 0; i < frame.size(); ++i) {
      ASSERT_EQ(frame[i], static_cast<uint8_t>(i * 3)) << "byte " << i;
    }
  });
}

TEST_F(DeviceTest, DiskCompletionTakesAccessLatency) {
  RunOnCpu([&] {
    const uint64_t before = machine_.clock().now();
    ASSERT_TRUE(disk_.SubmitRead(0, 0).ok());
    machine_.WaitForInterrupt();
    EXPECT_GE(machine_.clock().now() - before, kDiskAccessCycles);
  });
}

TEST_F(DeviceTest, DiskRejectsOutOfRange) {
  EXPECT_FALSE(disk_.SubmitRead(128, 0).ok());   // Block out of range.
  EXPECT_FALSE(disk_.SubmitWrite(0, 999).ok());  // Frame out of range.
}

TEST_F(DeviceTest, DiskCompleteUnknownIdFails) {
  EXPECT_FALSE(disk_.Complete(12345).ok());
}

// --- Lazily backed platters ---

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

TEST_F(DeviceTest, NeverWrittenBlockOfAFreshDiskReadsZero) {
  RunOnCpu([&] {
    Disk fresh(machine_, 1024);
    auto frame = machine_.mem().PageSpan(3);
    std::fill(frame.begin(), frame.end(), uint8_t{0xa5});
    Result<uint64_t> id = fresh.SubmitRead(1000, 3);
    ASSERT_TRUE(id.ok());
    machine_.WaitForInterrupt();
    ASSERT_TRUE(fresh.Complete(*id).ok());
    EXPECT_TRUE(std::all_of(frame.begin(), frame.end(), [](uint8_t b) { return b == 0; }));
  });
}

TEST(MappingTest, DiskSizedMappingBacksOnlyWrittenPages) {
  constexpr size_t kBytes = size_t{1024} * kPageBytes;
  Mapping mapping(kBytes);
  std::span<uint8_t> bytes = mapping.bytes();
  ASSERT_EQ(bytes.size(), kBytes);
  EXPECT_EQ(ResidentHostPages(bytes), 0u);

  bytes[5 * kPageBytes + 17] = 0x5a;
  EXPECT_EQ(ResidentHostPages(bytes), 1u);

  // Moving the mapping hands over the same bytes, which stay mapped.
  Mapping moved(std::move(mapping));
  EXPECT_TRUE(mapping.bytes().empty());
  EXPECT_EQ(moved.bytes().data(), bytes.data());
  EXPECT_EQ(moved.bytes()[5 * kPageBytes + 17], 0x5a);
  EXPECT_EQ(moved.bytes()[kBytes - 1], 0u);
}

// --- Recycled physical memory ---

// Every byte of every frame, read through the const view (which marks no
// frame dirty), is zero.
bool AllFramesReadZero(const PhysMem& mem) {
  for (PageId page = 0; page < mem.page_count(); ++page) {
    std::span<const uint8_t> frame = mem.PageSpan(page);
    if (!std::all_of(frame.begin(), frame.end(), [](uint8_t b) { return b == 0; })) {
      return false;
    }
  }
  return true;
}

TEST(PhysMemTest, ASameSizeMachineReusesTheMemoryZeroed) {
  // 256 frames: four words of the dirty bitmap.
  const Machine::Config config{.phys_pages = 256, .name = "recycled"};
  const uint64_t zeroed_before = PhysMem::frames_zeroed();
  {
    Machine first(config);
    PhysMem& mem = first.mem();
    mem.WriteWord(0, 0xdeadbeef);                         // Frame 0.
    mem.WriteWord(255 * kPageBytes + kPageBytes - 4, 1);  // The last word of the last frame.
    auto fill = [](std::span<uint8_t> bytes) {
      std::fill(bytes.begin(), bytes.end(), uint8_t{0xa5});
    };
    fill(mem.PageSpan(5));
    fill(mem.RangeSpan(10, 11));   // Frames 10-20: inside word 0.
    fill(mem.RangeSpan(60, 11));   // Frames 60-70: across words 0 and 1.
    fill(mem.RangeSpan(100, 151)); // Frames 100-250: words 1, 2 and 3.
    fill(mem.RangeSpan(30, 0));    // An empty range marks nothing.
    mem.PageSpan(5)[0] = 1;        // A frame handed out twice is zeroed once.
  }
  EXPECT_EQ(PhysMem::frames_zeroed() - zeroed_before, 1u + 1 + 1 + 11 + 11 + 151);

  const uint64_t mappings = Mapping::made();
  const uint8_t* recycled = nullptr;
  {
    Machine second(config);
    EXPECT_EQ(Mapping::made(), mappings) << "the second machine mapped fresh memory";
    EXPECT_TRUE(AllFramesReadZero(second.mem()));
    recycled = std::as_const(second.mem()).PageSpan(0).data();
  }

  // A machine of another size never takes that memory, though it is back
  // in the pool.
  Machine other(Machine::Config{.phys_pages = 128, .name = "other"});
  EXPECT_NE(std::as_const(other.mem()).PageSpan(0).data(), recycled);
  EXPECT_TRUE(AllFramesReadZero(other.mem()));
}

// --- Volatile write buffer, barriers, power cuts ---

class DiskDurabilityTest : public DeviceTest {
 protected:
  // Submits one request and retires it at its completion interrupt.
  Result<Disk::Completion> Retire(Result<uint64_t> id) {
    if (!id.ok()) {
      return id.status();
    }
    machine_.WaitForInterrupt();
    return disk_.Complete(*id);
  }

  void FillFrame(PageId frame, uint8_t salt) {
    auto bytes = machine_.mem().PageSpan(frame);
    for (size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<uint8_t>(i * 3 + salt);
    }
  }
};

TEST_F(DiskDurabilityTest, WriteIsAcknowledgedButNotDurableUntilBarrier) {
  RunOnCpu([&] {
    FillFrame(2, 1);
    ASSERT_TRUE(Retire(disk_.SubmitWrite(5, 2)).ok());
    EXPECT_EQ(disk_.buffered_blocks(), 1u);

    // The platter still has the old (zero) contents...
    std::vector<uint8_t> image = disk_.TakeImage();
    EXPECT_EQ(image[5 * kPageBytes], 0u);
    // ...but a read sees the acknowledged write (read-your-writes).
    auto frame3 = machine_.mem().PageSpan(3);
    ASSERT_TRUE(Retire(disk_.SubmitRead(5, 3)).ok());
    EXPECT_EQ(frame3[0], static_cast<uint8_t>(1));

    Result<Disk::Completion> barrier = Retire(disk_.SubmitBarrier());
    ASSERT_TRUE(barrier.ok());
    EXPECT_TRUE(barrier->barrier);
    EXPECT_EQ(disk_.buffered_blocks(), 0u);
    EXPECT_EQ(disk_.barriers_completed(), 1u);
    EXPECT_EQ(disk_.blocks_made_durable(), 1u);
    image = disk_.TakeImage();
    EXPECT_EQ(image[5 * kPageBytes], static_cast<uint8_t>(1));
  });
}

TEST_F(DiskDurabilityTest, PowerCutLosesUnbarrieredWrites) {
  RunOnCpu([&] {
    FillFrame(2, 9);
    ASSERT_TRUE(Retire(disk_.SubmitWrite(7, 2)).ok());
    disk_.PowerCut();
    EXPECT_TRUE(disk_.powered_off());
    EXPECT_EQ(disk_.buffered_blocks(), 0u);
    // The acknowledged-but-unbarriered write never reached the platter.
    std::vector<uint8_t> image = disk_.TakeImage();
    for (size_t i = 0; i < kPageBytes; ++i) {
      ASSERT_EQ(image[7 * kPageBytes + i], 0u) << "byte " << i;
    }
    // A dead device refuses further requests.
    EXPECT_EQ(disk_.SubmitRead(0, 0).status(), Status::kErrBadState);
    EXPECT_EQ(disk_.SubmitBarrier().status(), Status::kErrBadState);
  });
}

TEST_F(DiskDurabilityTest, PowerCutTornWriteLandsPrefixOfNewWords) {
  RunOnCpu([&] {
    // Barrier an "old" pattern home first, then buffer a "new" pattern and
    // cut power with the torn-write channel certain to fire.
    FillFrame(2, 10);
    ASSERT_TRUE(Retire(disk_.SubmitWrite(9, 2)).ok());
    ASSERT_TRUE(Retire(disk_.SubmitBarrier()).ok());
    FillFrame(2, 200);
    ASSERT_TRUE(Retire(disk_.SubmitWrite(9, 2)).ok());

    FaultPlan plan;
    plan.seed = 77;
    plan.disk_torn_per_mille = 1000;
    FaultInjector injector(plan);
    disk_.set_fault_injector(&injector);
    disk_.PowerCut();
    EXPECT_EQ(injector.blocks_torn(), 1u);

    // The block must now be a word-aligned prefix of the new pattern with
    // the old pattern beyond it — never a complete new block.
    std::vector<uint8_t> image = disk_.TakeImage();
    const uint8_t* block = &image[9 * kPageBytes];
    size_t boundary = 0;
    while (boundary < kPageBytes && block[boundary] == static_cast<uint8_t>(boundary * 3 + 200)) {
      ++boundary;
    }
    EXPECT_GT(boundary, 0u);
    EXPECT_LT(boundary, kPageBytes);
    EXPECT_EQ(boundary % 4, 0u);
    for (size_t i = boundary; i < kPageBytes; ++i) {
      ASSERT_EQ(block[i], static_cast<uint8_t>(i * 3 + 10)) << "byte " << i;
    }
  });
}

// --- The platter as blocks: a barrier moves buffered blocks, not bytes ---

TEST_F(DiskDurabilityTest, BlockRewrittenAfterABarrierReadsBackItsNewBytes) {
  RunOnCpu([&] {
    FillFrame(2, 1);
    ASSERT_TRUE(Retire(disk_.SubmitWrite(6, 2)).ok());
    ASSERT_TRUE(Retire(disk_.SubmitBarrier()).ok());
    // The barrier moved the buffered block onto the platter; a rewrite
    // must not land in it.
    FillFrame(2, 2);
    ASSERT_TRUE(Retire(disk_.SubmitWrite(6, 2)).ok());
    EXPECT_EQ(disk_.TakeImage()[6 * kPageBytes + 1], static_cast<uint8_t>(3 + 1));
    auto frame3 = machine_.mem().PageSpan(3);
    ASSERT_TRUE(Retire(disk_.SubmitRead(6, 3)).ok());
    for (size_t i = 0; i < kPageBytes; ++i) {
      ASSERT_EQ(frame3[i], static_cast<uint8_t>(i * 3 + 2)) << "byte " << i;
    }
    ASSERT_TRUE(Retire(disk_.SubmitBarrier()).ok());
    EXPECT_EQ(disk_.TakeImage()[6 * kPageBytes + 1], static_cast<uint8_t>(3 + 2));
  });
}

TEST_F(DiskDurabilityTest, PowerCutBeforeTheNextBarrierKeepsTheOldDurableBytes) {
  RunOnCpu([&] {
    FillFrame(2, 40);
    ASSERT_TRUE(Retire(disk_.SubmitWrite(8, 2)).ok());
    ASSERT_TRUE(Retire(disk_.SubmitBarrier()).ok());
    FillFrame(2, 41);
    ASSERT_TRUE(Retire(disk_.SubmitWrite(8, 2)).ok());
    disk_.PowerCut();
    const std::vector<uint8_t> image = disk_.TakeImage();
    for (size_t i = 0; i < kPageBytes; ++i) {
      ASSERT_EQ(image[8 * kPageBytes + i], static_cast<uint8_t>(i * 3 + 40)) << "byte " << i;
    }
  });
}

TEST_F(DiskDurabilityTest, TornWriteOntoANeverWrittenBlockLandsItsPrefixOverZeros) {
  RunOnCpu([&] {
    FillFrame(2, 7);
    ASSERT_TRUE(Retire(disk_.SubmitWrite(11, 2)).ok());
    FaultPlan plan;
    plan.seed = 78;
    plan.disk_torn_per_mille = 1000;
    FaultInjector injector(plan);
    disk_.set_fault_injector(&injector);
    disk_.PowerCut();
    ASSERT_EQ(injector.blocks_torn(), 1u);
    const std::vector<uint8_t> image = disk_.TakeImage();
    const uint8_t* block = &image[11 * kPageBytes];
    size_t boundary = 0;
    while (boundary < kPageBytes && block[boundary] == static_cast<uint8_t>(boundary * 3 + 7)) {
      ++boundary;
    }
    EXPECT_GT(boundary, 0u);
    EXPECT_LT(boundary, kPageBytes);
    EXPECT_EQ(boundary % 4, 0u);
    for (size_t i = boundary; i < kPageBytes; ++i) {
      ASSERT_EQ(block[i], 0u) << "byte " << i;
    }
  });
}

TEST_F(DiskDurabilityTest, RestoreImageOntoAUsedDiskZeroesBlocksAbsentFromTheImage) {
  RunOnCpu([&] {
    Disk other(machine_, 128);
    const auto retire_other = [&](Result<uint64_t> id) {
      ASSERT_TRUE(id.ok());
      machine_.WaitForInterrupt();
      ASSERT_TRUE(other.Complete(*id).ok());
    };
    FillFrame(2, 50);
    retire_other(other.SubmitWrite(4, 2));
    retire_other(other.SubmitBarrier());
    const std::vector<uint8_t> image = other.TakeImage();

    // disk_ holds a durable block 3 and a buffered block 5, neither in the
    // image.
    FillFrame(2, 60);
    ASSERT_TRUE(Retire(disk_.SubmitWrite(3, 2)).ok());
    ASSERT_TRUE(Retire(disk_.SubmitBarrier()).ok());
    ASSERT_TRUE(Retire(disk_.SubmitWrite(5, 2)).ok());
    ASSERT_EQ(disk_.RestoreImage(image), Status::kOk);
    EXPECT_EQ(disk_.buffered_blocks(), 0u);
    EXPECT_EQ(disk_.TakeImage(), image);
    auto frame3 = machine_.mem().PageSpan(3);
    for (const uint32_t block : {3u, 5u}) {
      std::fill(frame3.begin(), frame3.end(), uint8_t{0xa5});
      ASSERT_TRUE(Retire(disk_.SubmitRead(block, 3)).ok());
      EXPECT_TRUE(std::all_of(frame3.begin(), frame3.end(), [](uint8_t b) { return b == 0; }))
          << "block " << block;
    }
    ASSERT_TRUE(Retire(disk_.SubmitRead(4, 3)).ok());
    EXPECT_EQ(frame3[1], static_cast<uint8_t>(3 + 50));
  });
}

// --- Recycled disk blocks ---

TEST_F(DiskDurabilityTest, PooledBlocksNeverShowAPreviousDisksBytes) {
  RunOnCpu([&] {
    // A disk that barriers four blocks and buffers two more, then is
    // destroyed: its six blocks go to the free list holding 0xee.
    {
      Disk previous(machine_, 128);
      const auto retire = [&](Result<uint64_t> id) {
        ASSERT_TRUE(id.ok());
        machine_.WaitForInterrupt();
        ASSERT_TRUE(previous.Complete(*id).ok());
      };
      auto frame2 = machine_.mem().PageSpan(2);
      std::fill(frame2.begin(), frame2.end(), uint8_t{0xee});
      for (uint32_t block = 0; block < 4; ++block) {
        retire(previous.SubmitWrite(block, 2));
      }
      retire(previous.SubmitBarrier());
      retire(previous.SubmitWrite(4, 2));
      retire(previous.SubmitWrite(5, 2));
    }
    // Never-written blocks of the next disk read zero.
    auto frame3 = machine_.mem().PageSpan(3);
    for (const uint32_t block : {0u, 11u}) {
      std::fill(frame3.begin(), frame3.end(), uint8_t{0xa5});
      ASSERT_TRUE(Retire(disk_.SubmitRead(block, 3)).ok());
      EXPECT_TRUE(std::all_of(frame3.begin(), frame3.end(), [](uint8_t b) { return b == 0; }))
          << "block " << block;
    }
    // A buffered write fills a pooled block whole.
    FillFrame(2, 7);
    ASSERT_TRUE(Retire(disk_.SubmitWrite(11, 2)).ok());
    ASSERT_TRUE(Retire(disk_.SubmitRead(11, 3)).ok());
    for (size_t i = 0; i < kPageBytes; ++i) {
      ASSERT_EQ(frame3[i], static_cast<uint8_t>(i * 3 + 7)) << "byte " << i;
    }
    // A torn prefix onto the never-written block lands over zeros, not
    // over the pooled block's 0xee.
    FaultPlan plan;
    plan.seed = 78;
    plan.disk_torn_per_mille = 1000;
    FaultInjector injector(plan);
    disk_.set_fault_injector(&injector);
    disk_.PowerCut();
    ASSERT_EQ(injector.blocks_torn(), 1u);
    const std::vector<uint8_t> image = disk_.TakeImage();
    const uint8_t* block = &image[11 * kPageBytes];
    size_t boundary = 0;
    while (boundary < kPageBytes && block[boundary] == static_cast<uint8_t>(boundary * 3 + 7)) {
      ++boundary;
    }
    EXPECT_GT(boundary, 0u);
    EXPECT_LT(boundary, kPageBytes);
    for (size_t i = boundary; i < kPageBytes; ++i) {
      ASSERT_EQ(block[i], 0u) << "byte " << i;
    }
  });
}

TEST_F(DiskDurabilityTest, RestoreImageHoldsNoBlockForAZeroBlock) {
  RunOnCpu([&] {
    FillFrame(2, 90);
    ASSERT_TRUE(Retire(disk_.SubmitWrite(3, 2)).ok());
    ASSERT_TRUE(Retire(disk_.SubmitWrite(7, 2)).ok());
    ASSERT_TRUE(Retire(disk_.SubmitBarrier()).ok());
    EXPECT_EQ(disk_.platter_blocks(), 2u);
    // Block 3 is all zero in the image: its block goes back to the pool.
    std::vector<uint8_t> image = disk_.TakeImage();
    std::fill_n(image.begin() + 3 * kPageBytes, kPageBytes, uint8_t{0});
    ASSERT_EQ(disk_.RestoreImage(image), Status::kOk);
    EXPECT_EQ(disk_.platter_blocks(), 1u);
    EXPECT_EQ(disk_.TakeImage(), image);
    ASSERT_EQ(disk_.RestoreImage(std::vector<uint8_t>(128 * kPageBytes)), Status::kOk);
    EXPECT_EQ(disk_.platter_blocks(), 0u);
  });
}

TEST(FaultInjectorTest, ScheduledDiskErrorFiresOnceWithoutADraw) {
  // A scheduled disk error fails the first completion at or after its
  // cycle and leaves the stochastic stream exactly where it was.
  FaultPlan plan;
  plan.seed = 5;
  plan.disk_error_per_mille = 500;
  FaultInjector plain(plan);
  plan.DiskErrorAt(300).DiskErrorAt(100);
  FaultInjector scheduled(plan);
  const bool first = plain.NextDiskError(0);
  const bool second = plain.NextDiskError(0);
  const bool third = plain.NextDiskError(0);
  EXPECT_EQ(scheduled.NextDiskError(50), first);
  EXPECT_TRUE(scheduled.NextDiskError(150));
  EXPECT_EQ(scheduled.NextDiskError(200), second);
  EXPECT_TRUE(scheduled.NextDiskError(400));
  EXPECT_EQ(scheduled.NextDiskError(500), third);
  EXPECT_EQ(scheduled.disk_errors_injected(), plain.disk_errors_injected() + 2);
}

TEST_F(DiskDurabilityTest, RestoreImageBootsOverSurvivingPlatter) {
  RunOnCpu([&] {
    FillFrame(2, 33);
    ASSERT_TRUE(Retire(disk_.SubmitWrite(4, 2)).ok());
    ASSERT_TRUE(Retire(disk_.SubmitBarrier()).ok());
    const std::vector<uint8_t> image = disk_.TakeImage();

    Disk reborn(machine_, 128);
    EXPECT_EQ(reborn.RestoreImage(std::vector<uint8_t>(16)), Status::kErrInvalidArgs);
    ASSERT_EQ(reborn.RestoreImage(image), Status::kOk);
    EXPECT_FALSE(reborn.powered_off());
    auto frame3 = machine_.mem().PageSpan(3);
    std::fill(frame3.begin(), frame3.end(), uint8_t{0});
    Result<uint64_t> id = reborn.SubmitRead(4, 3);
    ASSERT_TRUE(id.ok());
    machine_.WaitForInterrupt();
    ASSERT_TRUE(reborn.Complete(*id).ok());
    EXPECT_EQ(frame3[0], static_cast<uint8_t>(33));
  });
}

TEST_F(DiskDurabilityTest, CancelIfSparesBarrierRequests) {
  RunOnCpu([&] {
    FillFrame(2, 5);
    Result<uint64_t> write_id = disk_.SubmitWrite(3, 2);
    Result<uint64_t> barrier_id = disk_.SubmitBarrier();
    ASSERT_TRUE(write_id.ok());
    ASSERT_TRUE(barrier_id.ok());
    // Teardown cancels every request touching frame 2 — the barrier (which
    // has no DMA frame) must survive it.
    const std::vector<uint64_t> cancelled = disk_.CancelIf([](PageId frame) { return frame == 2; });
    ASSERT_EQ(cancelled.size(), 1u);
    EXPECT_EQ(cancelled[0], *write_id);
    machine_.WaitForInterrupt();
    machine_.WaitForInterrupt();
    EXPECT_FALSE(disk_.Complete(*write_id).ok());    // Cancelled.
    Result<Disk::Completion> barrier = disk_.Complete(*barrier_id);
    ASSERT_TRUE(barrier.ok());
    EXPECT_TRUE(barrier->barrier);
  });
}


TEST(WireTest, BroadcastReachesEveryOtherStationAndUnicastOnlyItsOwn) {
  // Station 0 sends a broadcast frame, then a unicast frame to station 2.
  // Every other station receives the broadcast byte for byte; only station
  // 2 receives the unicast; the sender hears neither.
  constexpr int kStations = 4;
  World world;
  std::vector<std::unique_ptr<Machine>> machines;
  std::vector<std::unique_ptr<RecordingKernel>> kernels;
  std::vector<std::unique_ptr<Nic>> nics;
  Wire wire;
  for (int i = 0; i < kStations; ++i) {
    machines.push_back(std::make_unique<Machine>(
        Machine::Config{.phys_pages = 16, .name = "station"}, &world));
    kernels.push_back(std::make_unique<RecordingKernel>(*machines.back()));
    nics.push_back(std::make_unique<Nic>(*machines.back(), 0xa0 + i));
    wire.Attach(nics.back().get());
  }
  const auto frame = [](MacAddr dst, uint8_t seed) {
    std::vector<uint8_t> f(14 + 64);
    for (int i = 0; i < 6; ++i) {
      f[i] = static_cast<uint8_t>(dst >> (8 * (5 - i)));
      f[6 + i] = static_cast<uint8_t>(MacAddr{0xa0} >> (8 * (5 - i)));
    }
    for (size_t i = 12; i < f.size(); ++i) {
      f[i] = static_cast<uint8_t>(seed + 7 * i);
    }
    return f;
  };
  const std::vector<uint8_t> broadcast = frame(kBroadcastMac, 1);
  const std::vector<uint8_t> unicast = frame(0xa2, 2);
  std::vector<std::vector<std::vector<uint8_t>>> received(kStations);
  std::vector<std::function<void()>> bodies;
  for (int i = 0; i < kStations; ++i) {
    bodies.push_back([&, i] {
      if (i == 0) {
        ASSERT_TRUE(nics[0]->Transmit(broadcast));
        ASSERT_TRUE(nics[0]->Transmit(unicast));
      }
      machines[i]->Charge(100'000);  // Past both frames' arrival.
      while (auto f = nics[i]->ReceiveNext()) {
        received[i].push_back(std::move(*f));
      }
    });
  }
  world.Run(std::move(bodies));
  EXPECT_TRUE(received[0].empty());
  EXPECT_EQ(received[1], (std::vector<std::vector<uint8_t>>{broadcast}));
  EXPECT_EQ(received[2], (std::vector<std::vector<uint8_t>>{broadcast, unicast}));
  EXPECT_EQ(received[3], (std::vector<std::vector<uint8_t>>{broadcast}));
}

}  // namespace
}  // namespace xok::hw
