#include "src/exos/fs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/base/rand.h"
#include "src/hw/disk.h"

namespace xok::exos {
namespace {

class FsTest : public ::testing::Test {
 protected:
  FsTest()
      : machine_(hw::Machine::Config{.phys_pages = 512, .name = "fs"}),
        kernel_(machine_),
        disk_(machine_, 512) {
    kernel_.AttachDisk(&disk_);
  }

  void RunInProcess(std::function<void(Process&)> body) {
    Process proc(kernel_, std::move(body));
    ASSERT_TRUE(proc.ok());
    kernel_.Run();
  }

  hw::Machine machine_;
  aegis::Aegis kernel_;
  hw::Disk disk_;
};

// --- The journal checksum ---

TEST(JournalChecksumTest, DetectsWordSwapsInAndAcrossLanesAndTopBitFlipPairs) {
  // A full block, and a descriptor header's span (its last word and a
  // half-word tail run after the lanes fold).
  for (const size_t bytes : {hw::kPageBytes, hw::kPageBytes - 4}) {
    std::vector<uint8_t> block(bytes);
    for (size_t i = 0; i < block.size(); ++i) {
      block[i] = static_cast<uint8_t>(i * 7 + i / 251);
    }
    const uint32_t base = JournalChecksum(block);
    const auto swapped = [&block](size_t a, size_t b) {
      std::vector<uint8_t> copy = block;
      std::swap_ranges(copy.begin() + a * 8, copy.begin() + a * 8 + 8, copy.begin() + b * 8);
      return JournalChecksum(copy);
    };
    // Word i feeds lane i % 4.
    EXPECT_NE(swapped(8, 12), base) << bytes << " bytes: same lane";
    EXPECT_NE(swapped(9, 10), base) << bytes << " bytes: adjacent lanes";
    std::vector<uint8_t> flipped = block;
    flipped[5 * 8 + 7] ^= 0x80;  // Bit 63 of word 5 (lane 1)...
    flipped[6 * 8 + 7] ^= 0x80;  // ...and of word 6 (lane 2).
    EXPECT_NE(JournalChecksum(flipped), base) << bytes << " bytes: bit 63 in two lanes";
    EXPECT_EQ(JournalChecksum(block), base);
  }
}

// --- Aegis disk extent bindings ---

TEST_F(FsTest, ExtentAllocationAndTransferRoundTrip) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(8);
    ASSERT_TRUE(extent.ok());
    Result<aegis::PageGrant> frame = kernel_.SysAllocPage();
    ASSERT_TRUE(frame.ok());
    auto bytes = machine_.mem().PageSpan(frame->page);
    for (size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<uint8_t>(i * 13);
    }
    ASSERT_EQ(kernel_.SysDiskWrite(extent->extent, extent->cap, 3, frame->page), Status::kOk);
    std::fill(bytes.begin(), bytes.end(), uint8_t{0});
    ASSERT_EQ(kernel_.SysDiskRead(extent->extent, extent->cap, 3, frame->page), Status::kOk);
    for (size_t i = 0; i < bytes.size(); ++i) {
      ASSERT_EQ(bytes[i], static_cast<uint8_t>(i * 13));
    }
    (void)p;
  });
}

TEST_F(FsTest, TransferOutsideExtentRejected) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(4);
    ASSERT_TRUE(extent.ok());
    Result<aegis::PageGrant> frame = kernel_.SysAllocPage();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(kernel_.SysDiskRead(extent->extent, extent->cap, 4, frame->page),
              Status::kErrOutOfRange);
    (void)p;
  });
}

TEST_F(FsTest, ForgedExtentCapabilityRejected) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(4);
    ASSERT_TRUE(extent.ok());
    Result<aegis::PageGrant> frame = kernel_.SysAllocPage();
    ASSERT_TRUE(frame.ok());
    cap::Capability forged = extent->cap;
    forged.mac ^= 7;
    EXPECT_EQ(kernel_.SysDiskRead(extent->extent, forged, 0, frame->page),
              Status::kErrAccessDenied);
    // Read-only derived capability cannot write.
    Result<cap::Capability> ro = kernel_.SysDeriveCap(extent->cap, cap::kRead);
    ASSERT_TRUE(ro.ok());
    EXPECT_EQ(kernel_.SysDiskWrite(extent->extent, *ro, 0, frame->page),
              Status::kErrAccessDenied);
    EXPECT_EQ(kernel_.SysDiskRead(extent->extent, *ro, 0, frame->page), Status::kOk);
    (void)p;
  });
}

TEST_F(FsTest, TransferIntoForeignFrameRejected) {
  // Env A allocates a frame; env B may not DMA into it.
  hw::PageId foreign = 0;
  bool ready = false;
  Process a(kernel_, [&](Process& p) {
    Result<aegis::PageGrant> frame = kernel_.SysAllocPage();
    ASSERT_TRUE(frame.ok());
    foreign = frame->page;
    ready = true;
    (void)p;
  });
  Process b(kernel_, [&](Process& p) {
    while (!ready) {
      p.kernel().SysYield();
    }
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(4);
    ASSERT_TRUE(extent.ok());
    EXPECT_EQ(kernel_.SysDiskRead(extent->extent, extent->cap, 0, foreign),
              Status::kErrAccessDenied);
  });
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  kernel_.Run();
}

TEST_F(FsTest, FreedExtentCapabilityDies) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(4);
    ASSERT_TRUE(extent.ok());
    Result<aegis::PageGrant> frame = kernel_.SysAllocPage();
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(kernel_.SysFreeDiskExtent(extent->extent, extent->cap), Status::kOk);
    EXPECT_EQ(kernel_.SysDiskRead(extent->extent, extent->cap, 0, frame->page),
              Status::kErrOutOfRange);
    (void)p;
  });
}

// --- BlockCache ---

TEST_F(FsTest, CacheHitsAvoidDiskTraffic) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(16);
    ASSERT_TRUE(extent.ok());
    auto cache = BlockCache::Create(p, *extent, 4);
    ASSERT_TRUE(cache.ok());
    ASSERT_TRUE((*cache)->GetBlock(0, false).ok());
    ASSERT_TRUE((*cache)->GetBlock(0, false).ok());
    ASSERT_TRUE((*cache)->GetBlock(0, false).ok());
    EXPECT_EQ((*cache)->misses(), 1u);
    EXPECT_EQ((*cache)->hits(), 2u);
  });
}

TEST_F(FsTest, CacheWriteBackPersistsAcrossEviction) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(16);
    ASSERT_TRUE(extent.ok());
    auto cache = BlockCache::Create(p, *extent, 2);
    ASSERT_TRUE(cache.ok());
    {
      Result<std::span<uint8_t>> block = (*cache)->GetBlock(5, true);
      ASSERT_TRUE(block.ok());
      (*block)[0] = 0xbe;
      (*block)[1] = 0xef;
    }
    // Thrash the 2-slot cache so block 5 is evicted (and written back).
    for (uint32_t b = 8; b < 12; ++b) {
      ASSERT_TRUE((*cache)->GetBlock(b, false).ok());
    }
    Result<std::span<uint8_t>> block = (*cache)->GetBlock(5, false);
    ASSERT_TRUE(block.ok());
    EXPECT_EQ((*block)[0], 0xbe);
    EXPECT_EQ((*block)[1], 0xef);
  });
}

TEST_F(FsTest, MruPolicyBeatsLruOnLoopingScan) {
  // The §2 claim: a looping scan over B blocks with C < B cache slots has
  // a 100% miss rate under LRU but keeps C-1 stable blocks under MRU.
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(16);
    ASSERT_TRUE(extent.ok());
    constexpr int kBlocks = 12;
    constexpr int kLoops = 6;

    auto scan = [&](BlockCache& cache) {
      for (int loop = 0; loop < kLoops; ++loop) {
        for (uint32_t b = 0; b < kBlocks; ++b) {
          EXPECT_TRUE(cache.GetBlock(b, false).ok());
        }
      }
    };
    auto lru = BlockCache::Create(p, *extent, 8);
    ASSERT_TRUE(lru.ok());
    (*lru)->set_policy(BlockCache::Policy::kLru);
    scan(**lru);

    auto mru = BlockCache::Create(p, *extent, 8);
    ASSERT_TRUE(mru.ok());
    (*mru)->set_policy(BlockCache::Policy::kMru);
    scan(**mru);

    EXPECT_GT((*lru)->misses(), (*mru)->misses() * 2);
  });
}

TEST_F(FsTest, CustomPolicyIsConsulted) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(16);
    ASSERT_TRUE(extent.ok());
    auto cache = BlockCache::Create(p, *extent, 2);
    ASSERT_TRUE(cache.ok());
    int calls = 0;
    (*cache)->set_victim_picker([&](std::span<const BlockCache::Slot>) {
      ++calls;
      return 0u;  // Always evict slot 0.
    });
    ASSERT_TRUE((*cache)->GetBlock(0, false).ok());
    ASSERT_TRUE((*cache)->GetBlock(1, false).ok());
    ASSERT_TRUE((*cache)->GetBlock(2, false).ok());  // Evicts (picker consulted).
    EXPECT_EQ(calls, 1);
    // Slot 1 (block 1) must still be cached.
    const uint64_t misses = (*cache)->misses();
    ASSERT_TRUE((*cache)->GetBlock(1, false).ok());
    EXPECT_EQ((*cache)->misses(), misses);
  });
}

TEST_F(FsTest, ScanAwarePickerPinsMetadataAndBeatsLru) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(64);
    ASSERT_TRUE(extent.ok());
    constexpr uint32_t kMeta = 2;     // Blocks 0-1 are "metadata".
    constexpr uint32_t kData = 12;    // Data blocks 2..13.
    constexpr int kLoops = 6;

    auto scan = [&](BlockCache& cache) {
      for (int loop = 0; loop < kLoops; ++loop) {
        for (uint32_t b = 0; b < kData; ++b) {
          ASSERT_TRUE(cache.GetBlock(0, false).ok());  // Hot metadata touch.
          ASSERT_TRUE(cache.GetBlock(kMeta + b, false).ok());
        }
      }
    };
    auto lru = BlockCache::Create(p, *extent, 8);
    ASSERT_TRUE(lru.ok());
    scan(**lru);
    auto aware = BlockCache::Create(p, *extent, 8);
    ASSERT_TRUE(aware.ok());
    (*aware)->set_victim_picker(MakeScanAwarePicker(kMeta));
    scan(**aware);
    EXPECT_LT((*aware)->misses(), (*lru)->misses());
  });
}

// --- LibFs ---

TEST_F(FsTest, CreateWriteReadRoundTrip) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(64);
    ASSERT_TRUE(extent.ok());
    auto fs = LibFs::Format(p, *extent, 8);
    ASSERT_TRUE(fs.ok());
    Result<FileHandle> file = (*fs)->Create("hello.txt");
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> data = {'h', 'i', ' ', 'f', 's'};
    ASSERT_EQ((*fs)->Write(*file, 0, data), Status::kOk);
    std::vector<uint8_t> out(5);
    Result<uint32_t> n = (*fs)->Read(*file, 0, out);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 5u);
    EXPECT_EQ(out, data);
    EXPECT_EQ(*(*fs)->FileSize(*file), 5u);
  });
}

TEST_F(FsTest, OpenFindsExistingAndMissesAbsent) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(64);
    ASSERT_TRUE(extent.ok());
    auto fs = LibFs::Format(p, *extent, 8);
    ASSERT_TRUE(fs.ok());
    Result<FileHandle> a = (*fs)->Create("a");
    Result<FileHandle> b = (*fs)->Create("b");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NE(*a, *b);
    EXPECT_EQ(*(*fs)->Open("a"), *a);
    EXPECT_EQ(*(*fs)->Open("b"), *b);
    EXPECT_EQ((*fs)->Open("c").status(), Status::kErrNotFound);
    EXPECT_EQ((*fs)->Create("a").status(), Status::kErrAlreadyExists);
  });
}

TEST_F(FsTest, MultiBlockFileAndUnalignedIo) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(64);
    ASSERT_TRUE(extent.ok());
    auto fs = LibFs::Format(p, *extent, 4);
    ASSERT_TRUE(fs.ok());
    Result<FileHandle> file = (*fs)->Create("big");
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> data(hw::kPageBytes * 3 + 100);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i * 7 + 1);
    }
    ASSERT_EQ((*fs)->Write(*file, 0, data), Status::kOk);
    // Unaligned read across a block boundary.
    std::vector<uint8_t> out(200);
    Result<uint32_t> n = (*fs)->Read(*file, hw::kPageBytes - 100, out);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 200u);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], data[hw::kPageBytes - 100 + i]) << i;
    }
    // Short read at EOF.
    std::vector<uint8_t> tail(300);
    n = (*fs)->Read(*file, static_cast<uint32_t>(data.size()) - 50, tail);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 50u);
  });
}

TEST_F(FsTest, DataPersistsThroughSyncAndRemount) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(64);
    ASSERT_TRUE(extent.ok());
    {
      auto fs = LibFs::Format(p, *extent, 4);
      ASSERT_TRUE(fs.ok());
      Result<FileHandle> file = (*fs)->Create("persist");
      ASSERT_TRUE(file.ok());
      std::vector<uint8_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
      ASSERT_EQ((*fs)->Write(*file, 0, data), Status::kOk);
      ASSERT_EQ((*fs)->Sync(), Status::kOk);
    }
    // Remount with a fresh cache: everything must come back from disk.
    auto fs = LibFs::Mount(p, *extent, 4);
    ASSERT_TRUE(fs.ok());
    Result<FileHandle> file = (*fs)->Open("persist");
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> out(8);
    Result<uint32_t> n = (*fs)->Read(*file, 0, out);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(out, (std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));
  });
}

TEST_F(FsTest, MountRejectsUnformattedExtent) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(16);
    ASSERT_TRUE(extent.ok());
    EXPECT_EQ(LibFs::Mount(p, *extent, 4).status(), Status::kErrBadState);
  });
}

TEST_F(FsTest, FileSizeLimitEnforced) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(64);
    ASSERT_TRUE(extent.ok());
    auto fs = LibFs::Format(p, *extent, 4);
    ASSERT_TRUE(fs.ok());
    Result<FileHandle> file = (*fs)->Create("cap");
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> byte = {1};
    EXPECT_EQ((*fs)->Write(*file, LibFs::kMaxFileBytes, byte), Status::kErrOutOfRange);
    EXPECT_EQ((*fs)->Write(*file, 10, byte), Status::kErrOutOfRange);  // Hole.
  });
}

// --- Disk barrier syscall ---

TEST_F(FsTest, SysDiskBarrierRequiresLiveExtentAndWriteRights) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(8);
    ASSERT_TRUE(extent.ok());
    cap::Capability forged = extent->cap;
    forged.mac ^= 3;
    EXPECT_EQ(kernel_.SysDiskBarrier(extent->extent, forged), Status::kErrAccessDenied);
    Result<cap::Capability> ro = kernel_.SysDeriveCap(extent->cap, cap::kRead);
    ASSERT_TRUE(ro.ok());
    EXPECT_EQ(kernel_.SysDiskBarrier(extent->extent, *ro), Status::kErrAccessDenied);
    EXPECT_EQ(kernel_.SysDiskBarrier(extent->extent, extent->cap), Status::kOk);
    ASSERT_EQ(kernel_.SysFreeDiskExtent(extent->extent, extent->cap), Status::kOk);
    EXPECT_EQ(kernel_.SysDiskBarrier(extent->extent, extent->cap), Status::kErrOutOfRange);
    (void)p;
  });
}

TEST_F(FsTest, SysDiskBarrierDrainsAcknowledgedWrites) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(8);
    ASSERT_TRUE(extent.ok());
    Result<aegis::PageGrant> frame = kernel_.SysAllocPage();
    ASSERT_TRUE(frame.ok());
    auto bytes = machine_.mem().PageSpan(frame->page);
    std::fill(bytes.begin(), bytes.end(), uint8_t{0x5a});
    ASSERT_EQ(kernel_.SysDiskWrite(extent->extent, extent->cap, 2, frame->page), Status::kOk);
    // Acknowledged, but only buffered: the platter image is still zero.
    EXPECT_EQ(disk_.buffered_blocks(), 1u);
    const size_t platter_off = (extent->first_block + 2) * hw::kPageBytes;
    EXPECT_EQ(disk_.TakeImage()[platter_off], 0u);
    ASSERT_EQ(kernel_.SysDiskBarrier(extent->extent, extent->cap), Status::kOk);
    EXPECT_EQ(disk_.buffered_blocks(), 0u);
    EXPECT_EQ(disk_.TakeImage()[platter_off], 0x5au);
    (void)p;
  });
}

// --- Journaling ---

TEST_F(FsTest, CommittedMetadataSurvivesRemountWithoutSync) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(64);
    ASSERT_TRUE(extent.ok());
    {
      auto fs = LibFs::Format(p, *extent, 4);
      ASSERT_TRUE(fs.ok());
      ASSERT_TRUE((*fs)->journaled());
      Result<FileHandle> file = (*fs)->Create("wal.txt");
      ASSERT_TRUE(file.ok());
      std::vector<uint8_t> data(5000, 0xab);
      ASSERT_EQ((*fs)->Write(*file, 0, data), Status::kOk);
      EXPECT_GT((*fs)->txns_committed(), 0u);
      // No Sync: the dirty cache is simply dropped, as if the library
      // crashed. The journal alone must carry the metadata.
    }
    auto fs = LibFs::Mount(p, *extent, 4);
    ASSERT_TRUE(fs.ok());
    EXPECT_GT((*fs)->txns_replayed(), 0u);
    Result<FileHandle> file = (*fs)->Open("wal.txt");
    ASSERT_TRUE(file.ok());
    EXPECT_EQ(*(*fs)->FileSize(*file), 5000u);
    EXPECT_EQ((*fs)->Fsck(), Status::kOk) << (*fs)->fsck_error();
  });
}

TEST_F(FsTest, FullJournalCheckpointsAutomatically) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(128);
    ASSERT_TRUE(extent.ok());
    auto fs = LibFs::Format(p, *extent, 6);
    ASSERT_TRUE(fs.ok());
    // Each create is a 2-block transaction in an 8-block journal (4 blocks
    // per record with descriptor and commit): the journal wraps repeatedly.
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE((*fs)->Create("file" + std::to_string(i)).ok());
    }
    EXPECT_GT((*fs)->checkpoints(), 1u);
    EXPECT_EQ((*fs)->Fsck(), Status::kOk) << (*fs)->fsck_error();
    // Everything is still there after a remount (mixture of checkpointed
    // home blocks and journal replay).
    auto again = LibFs::Mount(p, *extent, 6);
    ASSERT_TRUE(again.ok());
    for (int i = 0; i < 12; ++i) {
      EXPECT_TRUE((*again)->Open("file" + std::to_string(i)).ok()) << i;
    }
    EXPECT_EQ((*again)->Fsck(), Status::kOk) << (*again)->fsck_error();
  });
}

TEST_F(FsTest, UnjournaledOptionReproducesLegacyLayout) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(64);
    ASSERT_TRUE(extent.ok());
    LibFs::Options options;
    options.cache_slots = 4;
    options.journal_blocks = 0;
    auto fs = LibFs::Format(p, *extent, options);
    ASSERT_TRUE(fs.ok());
    EXPECT_FALSE((*fs)->journaled());
    EXPECT_EQ((*fs)->data_start(), 3u);
    Result<FileHandle> file = (*fs)->Create("plain");
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> data = {9, 8, 7};
    ASSERT_EQ((*fs)->Write(*file, 0, data), Status::kOk);
    ASSERT_EQ((*fs)->Sync(), Status::kOk);
    EXPECT_EQ((*fs)->journal_block_writes(), 0u);
    auto again = LibFs::Mount(p, *extent, 4);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE((*again)->journaled());
    EXPECT_EQ((*again)->Fsck(), Status::kOk) << (*again)->fsck_error();
    std::vector<uint8_t> out(3);
    ASSERT_TRUE((*again)->Read(*(*again)->Open("plain"), 0, out).ok());
    EXPECT_EQ(out, data);
  });
}

TEST_F(FsTest, SyncIssuesABarrierToTheDevice) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(64);
    ASSERT_TRUE(extent.ok());
    auto fs = LibFs::Format(p, *extent, 4);
    ASSERT_TRUE(fs.ok());
    const uint64_t before = disk_.barriers_completed();
    Result<FileHandle> file = (*fs)->Create("durable");
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> data = {1};
    ASSERT_EQ((*fs)->Write(*file, 0, data), Status::kOk);
    ASSERT_EQ((*fs)->Sync(), Status::kOk);
    EXPECT_GT((*fs)->barriers_issued(), 0u);
    EXPECT_GT(disk_.barriers_completed(), before);
    // After the sync checkpoint nothing volatile remains on the device.
    EXPECT_EQ(disk_.buffered_blocks(), 0u);
    EXPECT_EQ((*fs)->cache().dirty_remaining(), 0u);
  });
}

// --- Fsck ---

TEST_F(FsTest, FsckFlagsCorruptAllocatorAndDanglingEntries) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(64);
    ASSERT_TRUE(extent.ok());
    {
      auto fs = LibFs::Format(p, *extent, 4);
      ASSERT_TRUE(fs.ok());
      Result<FileHandle> file = (*fs)->Create("victim");
      ASSERT_TRUE(file.ok());
      std::vector<uint8_t> data(100, 7);
      ASSERT_EQ((*fs)->Write(*file, 0, data), Status::kOk);
      ASSERT_EQ((*fs)->Sync(), Status::kOk);
      EXPECT_EQ((*fs)->Fsck(), Status::kOk) << (*fs)->fsck_error();
    }
    // Corrupt the durable image out-of-band: allocator pointer beyond the
    // extent. (Host-level tampering, as a crashed controller might leave.)
    // The journal region is wiped too — otherwise mount-time replay would
    // simply redo the committed metadata over the corruption.
    const size_t super_off = static_cast<size_t>(extent->first_block) * hw::kPageBytes;
    {
      std::vector<uint8_t> image = disk_.TakeImage();
      const uint32_t bogus = 0xffff;
      std::memcpy(&image[super_off + 4], &bogus, 4);
      std::memset(&image[super_off + 3 * hw::kPageBytes], 0, 8 * hw::kPageBytes);
      ASSERT_EQ(disk_.RestoreImage(image), Status::kOk);
      auto fs = LibFs::Mount(p, *extent, 4);
      ASSERT_TRUE(fs.ok());
      EXPECT_EQ((*fs)->Fsck(), Status::kErrBadState);
      EXPECT_NE((*fs)->fsck_error().find("allocator"), std::string::npos)
          << (*fs)->fsck_error();
    }
    // Restore a sane allocator but free the inode under the directory
    // entry: the entry dangles.
    {
      std::vector<uint8_t> image = disk_.TakeImage();
      const uint32_t sane = 12;  // data_start (3 + 8 journal blocks) + 1 block.
      std::memcpy(&image[super_off + 4], &sane, 4);
      const size_t inode_off = super_off + 2 * hw::kPageBytes;
      const uint32_t zero = 0;
      std::memcpy(&image[inode_off], &zero, 4);  // inode 0: used = 0.
      ASSERT_EQ(disk_.RestoreImage(image), Status::kOk);
      auto fs = LibFs::Mount(p, *extent, 4);
      ASSERT_TRUE(fs.ok());
      EXPECT_EQ((*fs)->Fsck(), Status::kErrBadState);
      EXPECT_NE((*fs)->fsck_error().find("dangling"), std::string::npos)
          << (*fs)->fsck_error();
    }
  });
}

TEST_F(FsTest, FsckFlagsDoublyClaimedDataBlock) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(64);
    ASSERT_TRUE(extent.ok());
    {
      auto fs = LibFs::Format(p, *extent, 4);
      ASSERT_TRUE(fs.ok());
      std::vector<uint8_t> data(100, 7);
      for (const char* name : {"a", "b"}) {
        Result<FileHandle> file = (*fs)->Create(name);
        ASSERT_TRUE(file.ok());
        ASSERT_EQ((*fs)->Write(*file, 0, data), Status::kOk);
      }
      ASSERT_EQ((*fs)->Sync(), Status::kOk);
    }
    std::vector<uint8_t> image = disk_.TakeImage();
    const size_t super_off = static_cast<size_t>(extent->first_block) * hw::kPageBytes;
    const size_t inode_off = super_off + 2 * hw::kPageBytes;
    // Point inode 1's first direct block at inode 0's, and wipe the
    // journal so replay cannot redo the intact inode table.
    uint32_t block0 = 0;
    std::memcpy(&block0, &image[inode_off + 8], 4);
    std::memcpy(&image[inode_off + 64 + 8], &block0, 4);
    std::memset(&image[super_off + 3 * hw::kPageBytes], 0, 8 * hw::kPageBytes);
    ASSERT_EQ(disk_.RestoreImage(image), Status::kOk);
    auto fs = LibFs::Mount(p, *extent, 4);
    ASSERT_TRUE(fs.ok());
    EXPECT_EQ((*fs)->Fsck(), Status::kErrBadState);
    EXPECT_NE((*fs)->fsck_error().find("two files"), std::string::npos) << (*fs)->fsck_error();
  });
}

// --- Persistent media errors (retry exhaustion) ---

TEST_F(FsTest, PersistentMediaErrorSurfacesAsIoFailure) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(64);
    ASSERT_TRUE(extent.ok());
    auto fs = LibFs::Format(p, *extent, 4);
    ASSERT_TRUE(fs.ok());
    Result<FileHandle> file = (*fs)->Create("sick");
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> data(256, 3);
    ASSERT_EQ((*fs)->Write(*file, 0, data), Status::kOk);
    ASSERT_EQ((*fs)->Sync(), Status::kOk);

    // From here every transfer fails: retries must exhaust and surface
    // kErrIo instead of looping forever.
    hw::FaultPlan plan;
    plan.seed = 5;
    plan.disk_error_per_mille = 1000;
    kernel_.InstallFaultPlan(plan);
    std::vector<uint8_t> more(hw::kPageBytes, 4);
    EXPECT_EQ((*fs)->Write(*file, 256, more), Status::kErrIo);  // Extension txn.
    EXPECT_GE(kernel_.fault_injector()->disk_errors_injected(), 8u);  // kMaxIoAttempts.

    // An overwrite of a cached block succeeds in memory, but Sync cannot
    // write it back; the dirty block stays accounted for.
    std::vector<uint8_t> touch = {9};
    ASSERT_EQ((*fs)->Write(*file, 0, touch), Status::kOk);
    EXPECT_EQ((*fs)->Sync(), Status::kErrIo);
    EXPECT_GT((*fs)->cache().dirty_remaining(), 0u);

    // The medium recovers: everything drains.
    hw::FaultPlan healthy;
    kernel_.InstallFaultPlan(healthy);
    EXPECT_EQ((*fs)->Sync(), Status::kOk);
    EXPECT_EQ((*fs)->cache().dirty_remaining(), 0u);
    EXPECT_EQ((*fs)->Fsck(), Status::kOk) << (*fs)->fsck_error();
  });
}

TEST_F(FsTest, FlushAttemptsEverySlotPastTheFirstFailure) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(16);
    ASSERT_TRUE(extent.ok());
    auto cache = BlockCache::Create(p, *extent, 4);
    ASSERT_TRUE(cache.ok());
    ASSERT_TRUE((*cache)->GetBlock(1, true).ok());
    ASSERT_TRUE((*cache)->GetBlock(2, true).ok());
    ASSERT_TRUE((*cache)->GetBlock(3, true).ok());
    EXPECT_EQ((*cache)->dirty_remaining(), 3u);

    hw::FaultPlan plan;
    plan.seed = 6;
    plan.disk_error_per_mille = 1000;
    kernel_.InstallFaultPlan(plan);
    EXPECT_EQ((*cache)->Flush(), Status::kErrIo);
    // Every slot was attempted (8 exhausted retries each), not just the
    // first: 24 injected errors, three blocks still dirty.
    EXPECT_EQ(kernel_.fault_injector()->disk_errors_injected(), 24u);
    EXPECT_EQ((*cache)->dirty_remaining(), 3u);

    hw::FaultPlan healthy;
    kernel_.InstallFaultPlan(healthy);
    EXPECT_EQ((*cache)->Flush(), Status::kOk);
    EXPECT_EQ((*cache)->dirty_remaining(), 0u);
  });
}

// Property: LibFs against an in-memory reference over random file ops.
TEST_F(FsTest, PropertyMatchesReferenceModel) {
  RunInProcess([&](Process& p) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(256);
    ASSERT_TRUE(extent.ok());
    auto fs_result = LibFs::Format(p, *extent, 6);
    ASSERT_TRUE(fs_result.ok());
    LibFs& fs = **fs_result;

    std::map<std::string, std::vector<uint8_t>> model;
    std::map<std::string, FileHandle> handles;
    SplitMix64 rng(31);
    const std::string names[4] = {"alpha", "beta", "gamma", "delta"};

    for (int step = 0; step < 400; ++step) {
      const std::string& name = names[rng.NextBelow(4)];
      switch (rng.NextBelow(3)) {
        case 0: {  // Create.
          Result<FileHandle> handle = fs.Create(name);
          if (model.count(name)) {
            ASSERT_EQ(handle.status(), Status::kErrAlreadyExists);
          } else {
            ASSERT_TRUE(handle.ok());
            model[name] = {};
            handles[name] = *handle;
          }
          break;
        }
        case 1: {  // Append/overwrite a chunk.
          if (!model.count(name)) {
            break;
          }
          std::vector<uint8_t>& ref = model[name];
          const uint32_t offset = static_cast<uint32_t>(
              rng.NextBelow(ref.size() + 1));  // No holes.
          std::vector<uint8_t> chunk(rng.NextBelow(600) + 1);
          for (auto& b : chunk) {
            b = static_cast<uint8_t>(rng.Next());
          }
          if (offset + chunk.size() > LibFs::kMaxFileBytes) {
            break;
          }
          ASSERT_EQ(fs.Write(handles[name], offset, chunk), Status::kOk);
          if (ref.size() < offset + chunk.size()) {
            ref.resize(offset + chunk.size());
          }
          std::copy(chunk.begin(), chunk.end(), ref.begin() + offset);
          break;
        }
        default: {  // Read and compare.
          if (!model.count(name)) {
            ASSERT_EQ(fs.Open(name).status(), Status::kErrNotFound);
            break;
          }
          const std::vector<uint8_t>& ref = model[name];
          std::vector<uint8_t> out(rng.NextBelow(800) + 1);
          const uint32_t offset = static_cast<uint32_t>(rng.NextBelow(ref.size() + 32));
          Result<uint32_t> n = fs.Read(handles[name], offset, out);
          ASSERT_TRUE(n.ok());
          const uint32_t expect =
              offset >= ref.size()
                  ? 0
                  : std::min<uint32_t>(static_cast<uint32_t>(out.size()),
                                       static_cast<uint32_t>(ref.size()) - offset);
          ASSERT_EQ(*n, expect);
          for (uint32_t i = 0; i < expect; ++i) {
            ASSERT_EQ(out[i], ref[offset + i]) << "file " << name << " off " << offset + i;
          }
          break;
        }
      }
    }
  });
}

}  // namespace
}  // namespace xok::exos
