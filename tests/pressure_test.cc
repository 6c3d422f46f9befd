// Resource pressure: deterministic revocation campaigns (PressurePlan)
// against live environments, the guaranteed-reserve floor that keeps
// pressure from starving a victim, the bounded repossession vector, the
// DMA-cancel hazard when a repossessed frame is an in-flight disk target,
// SysKillEnv's capability check, and the libOS RevocationClient repairing
// every abstraction the campaigns break.
#include "src/core/pressure.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "src/core/aegis.h"
#include "src/exos/fs.h"
#include "src/exos/process.h"
#include "src/exos/revocation.h"
#include "src/exos/udp.h"
#include "src/hw/disk.h"
#include "src/hw/nic.h"

namespace xok {
namespace {

using aegis::Aegis;
using aegis::EnvId;
using aegis::EnvSpec;
using aegis::kNoEnv;
using aegis::PressurePlan;

uint64_t Resolve(uint32_t ip) { return ip == 1 ? 0xa : 0xb; }

class PressureTest : public ::testing::Test {
 protected:
  PressureTest()
      : machine_(hw::Machine::Config{.phys_pages = 256, .name = "pressure"}),
        kernel_(machine_),
        disk_(machine_, 128),
        nic_(machine_, 0xa) {
    kernel_.AttachDisk(&disk_);
    kernel_.AttachNic(&nic_);
    kernel_.set_audit_on_fault(true);
  }

  hw::Machine machine_;
  Aegis kernel_;
  hw::Disk disk_;
  hw::Nic nic_;
};

// --- The reserve floor bounds page pressure ---

TEST_F(PressureTest, OneShotPageRevocationStopsAtTheReserveFloor) {
  bool done = false;
  EnvSpec victim;  // No revoke handler: every applied page is repossessed.
  victim.entry = [&] {
    std::vector<aegis::PageGrant> pages;
    for (int i = 0; i < 10; ++i) {
      Result<aegis::PageGrant> page = kernel_.SysAllocPage();
      ASSERT_TRUE(page.ok());
      pages.push_back(*page);
    }
    while (kernel_.pressure_stats()->pages_requested == 0) {
      kernel_.SysSleep(5'000);
    }
    // The plan asked for 20 but the floor (4) capped it at our headroom.
    const std::vector<hw::PageId> taken = kernel_.SysReadRepossessed();
    EXPECT_EQ(taken.size(), 6u);
    Result<aegis::EnvStats> stats = kernel_.SysEnvStats(kernel_.SysSelf());
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->pages_held, 4u);
    done = true;
  };
  Result<aegis::EnvGrant> grant = kernel_.CreateEnv(std::move(victim));
  ASSERT_TRUE(grant.ok());

  PressurePlan plan;
  plan.floor.pages = 4;
  plan.RevokePagesAt(200'000, grant->env, 20);
  kernel_.InstallPressurePlan(plan);
  kernel_.Run();

  EXPECT_TRUE(done);
  const aegis::PressureStats* stats = kernel_.pressure_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->pages_requested, 6u);
  EXPECT_EQ(stats->floor_clamps, 1u);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

// --- Slice revocation keeps the per-CPU ledger consistent ---

TEST_F(PressureTest, SliceRevocationKeepsTheFloorAndTheLedger) {
  hw::Machine machine(hw::Machine::Config{.phys_pages = 64, .name = "slices", .cpus = 2});
  Aegis kernel(machine);
  kernel.set_audit_on_fault(true);
  bool done = false;
  EnvSpec victim;
  victim.slices = 2;
  victim.entry = [&] {
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(kernel.SysAllocSlice(), Status::kOk);
    }
    Result<aegis::EnvStats> before = kernel.SysEnvStats(kernel.SysSelf());
    ASSERT_TRUE(before.ok());
    ASSERT_EQ(before->slice_slots, 6u);
    while (kernel.pressure_stats()->slices_revoked == 0) {
      kernel.SysSleep(5'000);
    }
    // Degraded to the floor — but still scheduled (this code is running).
    Result<aegis::EnvStats> after = kernel.SysEnvStats(kernel.SysSelf());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->slice_slots, 1u);
    EXPECT_EQ(after->counters.slices_revoked, 5u);
    done = true;
  };
  Result<aegis::EnvGrant> grant = kernel.CreateEnv(std::move(victim));
  ASSERT_TRUE(grant.ok());

  PressurePlan plan;
  plan.floor.slices = 1;
  plan.RevokeSlicesAt(300'000, grant->env, 100);
  kernel.InstallPressurePlan(plan);
  kernel.Run();

  EXPECT_TRUE(done);
  EXPECT_EQ(kernel.pressure_stats()->slices_revoked, 5u);
  EXPECT_EQ(kernel.pressure_stats()->floor_clamps, 1u);
  aegis::Aegis::AuditReport report = kernel.AuditInvariants();
  EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(kernel.audit_failures(), 0u) << kernel.first_audit_failure();
}

// --- Extent reclaim voids capabilities but honors the floor ---

TEST_F(PressureTest, ExtentReclaimVoidsCapabilitiesAndKeepsTheFloor) {
  bool done = false;
  EnvSpec victim;
  victim.entry = [&] {
    std::vector<Aegis::DiskExtentGrant> extents;
    for (int i = 0; i < 3; ++i) {
      Result<Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(4);
      ASSERT_TRUE(extent.ok());
      extents.push_back(*extent);
    }
    Result<aegis::PageGrant> frame = kernel_.SysAllocPage();
    ASSERT_TRUE(frame.ok());
    while (kernel_.pressure_stats()->extents_reclaimed < 2) {
      kernel_.SysSleep(5'000);
    }
    // The first two extents are dead (epoch bump voided the caps) ...
    EXPECT_EQ(kernel_.SysDiskRead(extents[0].extent, extents[0].cap, 0, frame->page),
              Status::kErrOutOfRange);
    EXPECT_EQ(kernel_.SysDiskRead(extents[1].extent, extents[1].cap, 0, frame->page),
              Status::kErrOutOfRange);
    // ... but the floor kept one extent alive and fully usable.
    EXPECT_EQ(kernel_.SysDiskWrite(extents[2].extent, extents[2].cap, 0, frame->page),
              Status::kOk);
    EXPECT_EQ(kernel_.SysDiskRead(extents[2].extent, extents[2].cap, 0, frame->page),
              Status::kOk);
    done = true;
  };
  Result<aegis::EnvGrant> grant = kernel_.CreateEnv(std::move(victim));
  ASSERT_TRUE(grant.ok());

  PressurePlan plan;
  plan.floor.extents = 1;
  plan.ReclaimExtentsAt(200'000, grant->env, 10);
  kernel_.InstallPressurePlan(plan);
  kernel_.Run();

  EXPECT_TRUE(done);
  EXPECT_EQ(kernel_.pressure_stats()->extents_reclaimed, 2u);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

// --- Bounded repossession vector (satellite: overflow accounting) ---

TEST_F(PressureTest, RepossessionVectorIsBoundedAndCountsOverflow) {
  constexpr uint32_t kPages = aegis::Env::kMaxRepossessed + 20;
  EnvId victim_id = kNoEnv;
  bool victim_ready = false;
  bool revoked = false;
  bool done = false;
  EnvSpec victim;
  victim.handlers.revoke = [](uint32_t) {};  // Refuse: everything reposssesed.
  victim.entry = [&] {
    for (uint32_t i = 0; i < kPages; ++i) {
      ASSERT_TRUE(kernel_.SysAllocPage().ok());
    }
    victim_ready = true;
    while (!revoked) {
      kernel_.SysYield();
    }
    // Only the first kMaxRepossessed notifications were retained ...
    const std::vector<hw::PageId> taken = kernel_.SysReadRepossessed();
    EXPECT_EQ(taken.size(), static_cast<size_t>(aegis::Env::kMaxRepossessed));
    done = true;
  };
  EnvSpec aggressor;
  aggressor.entry = [&] {
    while (!victim_ready) {
      kernel_.SysYield();
    }
    const uint32_t free_before = kernel_.free_pages();
    ASSERT_EQ(kernel_.RevokePages(victim_id, kPages), Status::kOk);
    // ... but every frame came back regardless, and the loss is visible.
    EXPECT_EQ(kernel_.free_pages(), free_before + kPages);
    Result<aegis::EnvStats> stats = kernel_.SysEnvStats(victim_id);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->pages_held, 0u);
    EXPECT_EQ(stats->counters.repossess_overflow, 20u);
    revoked = true;
  };
  Result<aegis::EnvGrant> grant = kernel_.CreateEnv(std::move(victim));
  ASSERT_TRUE(grant.ok());
  victim_id = grant->env;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(aggressor)).ok());
  kernel_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

// --- Repossessing an in-flight DMA target (satellite: latent hazard) ---

TEST_F(PressureTest, RepossessingDmaTargetCancelsTheTransfer) {
  EnvId victim_id = kNoEnv;
  bool victim_submitting = false;
  bool victim_repaired = false;
  bool aggressor_done = false;
  hw::PageId dma_frame = 0;

  EnvSpec victim;  // No revoke handler: the frame is taken by force.
  victim.entry = [&] {
    Result<Aegis::DiskExtentGrant> extent = kernel_.SysAllocDiskExtent(4);
    ASSERT_TRUE(extent.ok());
    Result<aegis::PageGrant> frame = kernel_.SysAllocPage();
    ASSERT_TRUE(frame.ok());
    dma_frame = frame->page;
    victim_submitting = true;
    // Blocks awaiting the completion interrupt; the revocation lands
    // mid-flight, repossesses the DMA target, and must cancel the DMA —
    // the transfer fails rather than scribbling on the frame's next owner.
    EXPECT_EQ(kernel_.SysDiskWrite(extent->extent, extent->cap, 0, frame->page),
              Status::kErrIo);
    const std::vector<hw::PageId> taken = kernel_.SysReadRepossessed();
    ASSERT_EQ(taken.size(), 1u);
    EXPECT_EQ(taken[0], dma_frame);
    victim_repaired = true;
  };
  EnvSpec aggressor;
  aggressor.entry = [&] {
    while (!victim_submitting || disk_.inflight_requests() == 0) {
      kernel_.SysYield();
    }
    ASSERT_EQ(kernel_.RevokePages(victim_id, 1), Status::kOk);
    // The in-flight request died with the binding.
    EXPECT_EQ(disk_.inflight_requests(), 0u);
    // Grab the repossessed frame and give it a new life; sleep well past
    // the disk latency so a surviving (buggy) completion would land now.
    Result<aegis::PageGrant> next = kernel_.SysAllocPage(dma_frame);
    ASSERT_TRUE(next.ok());
    std::span<uint8_t> bytes = machine_.mem().PageSpan(next->page);
    for (size_t i = 0; i < 64; ++i) {
      bytes[i] = static_cast<uint8_t>(0xc0 + i);
    }
    kernel_.SysSleep(hw::kClockHz / 50);
    for (size_t i = 0; i < 64; ++i) {
      ASSERT_EQ(bytes[i], static_cast<uint8_t>(0xc0 + i)) << "byte " << i;
    }
    Aegis::AuditReport report = kernel_.AuditInvariants();
    EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
    aggressor_done = true;
  };
  Result<aegis::EnvGrant> grant = kernel_.CreateEnv(std::move(victim));
  ASSERT_TRUE(grant.ok());
  victim_id = grant->env;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(aggressor)).ok());
  kernel_.Run();
  EXPECT_TRUE(victim_repaired);
  EXPECT_TRUE(aggressor_done);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

// --- SysKillEnv is capability-gated ---

TEST_F(PressureTest, SysKillEnvRequiresARevokeCapability) {
  EnvId target_id = kNoEnv;
  cap::Capability target_cap;
  bool killer_done = false;
  EnvSpec target;
  target.entry = [&] {
    for (;;) {
      kernel_.SysSleep(50'000);  // Lives until reaped.
    }
  };
  EnvSpec killer;
  killer.entry = [&] {
    cap::Capability forged = target_cap;
    forged.mac ^= 0x1995;
    EXPECT_EQ(kernel_.SysKillEnv(target_id, forged), Status::kErrAccessDenied);
    EXPECT_TRUE(kernel_.SysEnvAlive(target_id));
    EXPECT_EQ(kernel_.SysKillEnv(target_id, target_cap), Status::kOk);
    EXPECT_FALSE(kernel_.SysEnvAlive(target_id));
    EXPECT_EQ(kernel_.SysKillEnv(99, target_cap), Status::kErrNotFound);
    Aegis::AuditReport report = kernel_.AuditInvariants();
    EXPECT_TRUE(report.ok()) << (report.violations.empty() ? "" : report.violations.front());
    killer_done = true;
  };
  Result<aegis::EnvGrant> grant = kernel_.CreateEnv(std::move(target));
  ASSERT_TRUE(grant.ok());
  target_id = grant->env;
  target_cap = grant->cap;
  ASSERT_TRUE(kernel_.CreateEnv(std::move(killer)).ok());
  kernel_.Run();
  EXPECT_TRUE(killer_done);
  EXPECT_EQ(kernel_.envs_killed(), 1u);
}

// --- Storms pick seeded victims and drain everyone to the floor ---

TEST_F(PressureTest, StormDrainsEveryVictimExactlyToTheFloor) {
  constexpr uint64_t kStormEnd = 900'000;
  int done = 0;
  std::vector<EnvId> holders;
  for (int e = 0; e < 2; ++e) {
    EnvSpec holder;  // No handler: storm pressure lands as repossession.
    holder.entry = [&] {
      for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(kernel_.SysAllocPage().ok());
      }
      while (kernel_.SysGetCycles() < kStormEnd + 100'000) {
        kernel_.SysSleep(20'000);
      }
      (void)kernel_.SysReadRepossessed();
      Result<aegis::EnvStats> stats = kernel_.SysEnvStats(kernel_.SysSelf());
      ASSERT_TRUE(stats.ok());
      EXPECT_EQ(stats->pages_held, 4u);  // Degraded exactly to the floor.
      ++done;
    };
    Result<aegis::EnvGrant> grant = kernel_.CreateEnv(std::move(holder));
    ASSERT_TRUE(grant.ok());
    holders.push_back(grant->env);
  }

  PressurePlan plan;
  plan.seed = 7;
  plan.floor.pages = 4;
  plan.Storm(/*start=*/100'000, /*end=*/kStormEnd, /*period=*/100'000, /*pages=*/4);
  kernel_.InstallPressurePlan(plan);
  kernel_.Run();

  EXPECT_EQ(done, 2);
  const aegis::PressureStats* stats = kernel_.pressure_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->bursts, 4u);
  // 2 envs x 8 pages of headroom: the storm took all of it, then clamped.
  EXPECT_EQ(stats->pages_requested, 16u);
  EXPECT_GE(stats->floor_clamps, 1u);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

// --- RevocationClient: victim-save flush, then repossession repair ---

TEST_F(PressureTest, RevocationClientFlushesDirtyBlocksThenRepairsRepossession) {
  constexpr uint32_t kChunk = 512;
  bool done = false;
  exos::Process worker(kernel_, [&](exos::Process& p) {
    Result<Aegis::DiskExtentGrant> extent = p.kernel().SysAllocDiskExtent(32);
    ASSERT_TRUE(extent.ok());
    Result<std::unique_ptr<exos::LibFs>> fs = exos::LibFs::Format(p, *extent, 4);
    ASSERT_TRUE(fs.ok());
    Result<exos::FileHandle> file = (*fs)->Create("data");
    ASSERT_TRUE(file.ok());
    exos::RevocationClient rc(p, {.fs = fs->get()});

    // A few clean-ish VM pages the handler can yield without data loss.
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(machine_.StoreWord(0x900000 + i * hw::kPageBytes, 100 + i), Status::kOk);
    }
    // Three dirty blocks in the cache (no Sync).
    std::vector<uint8_t> chunk(kChunk);
    for (uint32_t b = 0; b < 3; ++b) {
      for (uint32_t i = 0; i < kChunk; ++i) {
        chunk[i] = static_cast<uint8_t>(b * 7 + i);
      }
      ASSERT_EQ((*fs)->Write(*file, b * kChunk, chunk), Status::kOk);
    }
    ASSERT_GT(fs->get()->cache().dirty_remaining(), 0u);

    // Small revocation: the handler cannot touch the dirty frames, so it
    // complies from VM pages and schedules a victim-save flush.
    ASSERT_EQ(kernel_.RevokePages(p.id(), 2), Status::kOk);
    EXPECT_TRUE(kernel_.SysReadRepossessed().empty());  // Fully complied.
    EXPECT_EQ(rc.stats().revocations_seen, 1u);
    // Compliance came from clean cache frames (metadata blocks) first,
    // then VM pages — two pages total, none repossessed.
    EXPECT_EQ(rc.stats().cache_frames_released + rc.stats().pages_released, 2u);
    EXPECT_TRUE(rc.flush_wanted());
    ASSERT_EQ(rc.Poll(), Status::kOk);
    EXPECT_EQ(rc.stats().fs_flushes, 1u);
    EXPECT_EQ(fs->get()->cache().dirty_remaining(), 0u);

    // Oversized revocation: compliance runs out and the abort protocol
    // repossesses the rest (cache frames included). Poll repairs.
    ASSERT_EQ(kernel_.RevokePages(p.id(), 30), Status::kOk);
    ASSERT_EQ(rc.Poll(), Status::kOk);
    EXPECT_GT(rc.stats().pages_repossessed, 0u);
    EXPECT_GT(rc.stats().fs_repairs, 0u);

    // Everything flushed before the storm is still readable: the repaired
    // cache refetches from disk through fresh frames.
    std::vector<uint8_t> back(kChunk);
    for (uint32_t b = 0; b < 3; ++b) {
      Result<uint32_t> read = (*fs)->Read(*file, b * kChunk, back);
      ASSERT_TRUE(read.ok()) << "block " << b;
      ASSERT_EQ(*read, kChunk) << "block " << b;
      for (uint32_t i = 0; i < kChunk; ++i) {
        ASSERT_EQ(back[i], static_cast<uint8_t>(b * 7 + i)) << "block " << b << " byte " << i;
      }
    }
    done = true;
  });
  ASSERT_TRUE(worker.ok());
  kernel_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

// --- A revoke that lands while a block-cache miss waits on the disk ---

// GetBlock's write-back and read both block. A revoke handler that runs
// meanwhile releases clean frames, erasing slots; the miss must neither
// lose track of its victim nor have the victim's frame released under the
// transfer.
TEST_F(PressureTest, RevokeDuringABlockCacheMissKeepsTheVictimFrame) {
  std::unique_ptr<exos::BlockCache> cache;
  bool in_miss = false;
  bool done = false;
  exos::Process worker(kernel_, [&](exos::Process& p) {
    Result<Aegis::DiskExtentGrant> extent = p.kernel().SysAllocDiskExtent(8);
    ASSERT_TRUE(extent.ok());
    {
      // Block 4 holds a known pattern on disk.
      Result<std::unique_ptr<exos::BlockCache>> setup = exos::BlockCache::Create(p, *extent, 1);
      ASSERT_TRUE(setup.ok());
      Result<std::span<uint8_t>> block = (*setup)->GetBlock(4, /*for_write=*/true);
      ASSERT_TRUE(block.ok());
      std::fill(block->begin(), block->end(), uint8_t{0x44});
      ASSERT_EQ((*setup)->Flush(), Status::kOk);
    }
    Result<std::unique_ptr<exos::BlockCache>> created = exos::BlockCache::Create(p, *extent, 4);
    ASSERT_TRUE(created.ok());
    cache = std::move(*created);
    p.set_revoke_handler([&](uint32_t pages) { cache->ReleaseCleanFrames(pages); });
    for (uint32_t b = 0; b < 4; ++b) {
      ASSERT_TRUE(cache->GetBlock(b, /*for_write=*/false).ok());
    }
    // Block 3 sits in the last slot, dirty and most recently used: under
    // MRU it is the next miss's victim, written back before the read.
    Result<std::span<uint8_t>> victim = cache->GetBlock(3, /*for_write=*/true);
    ASSERT_TRUE(victim.ok());
    std::fill(victim->begin(), victim->end(), uint8_t{0x33});
    cache->set_policy(exos::BlockCache::Policy::kMru);

    in_miss = true;
    Result<std::span<uint8_t>> block = cache->GetBlock(4, /*for_write=*/false);
    in_miss = false;
    ASSERT_TRUE(block.ok());
    // Block 4 was read into the victim's frame, the only one left.
    EXPECT_EQ(block->data(), victim->data());
    EXPECT_EQ((*block)[0], 0x44);
    EXPECT_EQ((*block)[hw::kPageBytes - 1], 0x44);
    EXPECT_EQ(cache->slot_count(), 1u);
    EXPECT_EQ(cache->dirty_remaining(), 0u);
    const uint64_t hits = cache->hits();
    ASSERT_TRUE(cache->GetBlock(4, /*for_write=*/false).ok());
    EXPECT_EQ(cache->hits(), hits + 1);
    // Block 3's write-back reached the disk.
    Result<std::span<uint8_t>> again = cache->GetBlock(3, /*for_write=*/false);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ((*again)[0], 0x33);
    EXPECT_TRUE(p.kernel().SysReadRepossessed().empty());  // Every revoke complied.
    done = true;
  });
  ASSERT_TRUE(worker.ok());
  const EnvId worker_id = worker.id();

  // Two one-page revocations while block 3 is written back, one more while
  // block 4 is read in.
  uint32_t revokes = 0;
  EnvSpec revoker;
  revoker.entry = [&] {
    while (kernel_.SysEnvAlive(worker_id)) {
      if (in_miss) {
        const bool writing_back = cache->dirty_remaining() > 0;
        if (writing_back ? revokes < 2 : revokes == 2) {
          ASSERT_EQ(kernel_.RevokePages(worker_id, 1), Status::kOk);
          ++revokes;
        }
      }
      kernel_.SysYield();
    }
  };
  ASSERT_TRUE(kernel_.CreateEnv(std::move(revoker)).ok());
  kernel_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(revokes, 3u);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

// --- RevocationClient: filter reclaim severs a socket; Poll rebinds ---

TEST_F(PressureTest, RevocationClientRebindsSocketAfterFilterReclaim) {
  bool done = false;
  exos::Process worker(kernel_, [&](exos::Process& p) {
    exos::UdpSocket socket(p, exos::NetIface{0xa, 1, Resolve});
    ASSERT_EQ(socket.Bind(700), Status::kOk);
    exos::RevocationClient rc(p, {.socket = &socket});
    while (rc.stats().socket_repairs == 0) {
      ASSERT_EQ(rc.Poll(), Status::kOk);
      p.kernel().SysSleep(10'000);
    }
    // The new binding is live (stats readable means a live filter).
    ASSERT_TRUE(socket.filter_id().has_value());
    EXPECT_TRUE(p.kernel().SysPacketStats(*socket.filter_id()).ok());
    EXPECT_EQ(socket.repairs(), 1u);
    EXPECT_FALSE(socket.legacy_fallback());  // Was never ring-bound.
    EXPECT_EQ(socket.Close(), Status::kOk);
    done = true;
  });
  ASSERT_TRUE(worker.ok());

  PressurePlan plan;
  plan.ReclaimFiltersAt(200'000, worker.id(), 1);
  kernel_.InstallPressurePlan(plan);
  kernel_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(kernel_.pressure_stats()->filters_reclaimed, 1u);
  EXPECT_EQ(kernel_.audit_failures(), 0u) << kernel_.first_audit_failure();
}

}  // namespace
}  // namespace xok
