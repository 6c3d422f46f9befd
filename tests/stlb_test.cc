#include "src/core/stlb.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/base/rand.h"

namespace xok::aegis {
namespace {

constexpr uint32_t kFrames = 1 << 16;

TEST(Stlb, MissesWhenEmpty) {
  Stlb stlb(kFrames);
  EXPECT_EQ(stlb.Lookup(5, 1), nullptr);
}

TEST(Stlb, HitAfterInsert) {
  Stlb stlb(kFrames);
  stlb.Insert(5, 1, 77, true);
  const Stlb::Entry* entry = stlb.Lookup(5, 1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->pfn, 77u);
  EXPECT_TRUE(entry->writable);
}

TEST(Stlb, AsidSeparation) {
  Stlb stlb(kFrames);
  stlb.Insert(5, 1, 77, true);
  EXPECT_EQ(stlb.Lookup(5, 2), nullptr);
}

TEST(Stlb, InvalidateRemoves) {
  Stlb stlb(kFrames);
  stlb.Insert(5, 1, 77, true);
  stlb.Invalidate(5, 1);
  EXPECT_EQ(stlb.Lookup(5, 1), nullptr);
}

TEST(Stlb, InvalidateWrongAsidIsNoop) {
  Stlb stlb(kFrames);
  stlb.Insert(5, 1, 77, true);
  stlb.Invalidate(5, 2);
  EXPECT_NE(stlb.Lookup(5, 1), nullptr);
}

TEST(Stlb, FlushAsidRemovesAllForAsid) {
  Stlb stlb(kFrames);
  for (hw::Vpn v = 0; v < 100; ++v) {
    stlb.Insert(v, 3, v, false);
    stlb.Insert(v, 4, v, false);
  }
  stlb.FlushAsid(3);
  int live3 = 0;
  int live4 = 0;
  for (hw::Vpn v = 0; v < 100; ++v) {
    live3 += stlb.Lookup(v, 3) != nullptr ? 1 : 0;
    live4 += stlb.Lookup(v, 4) != nullptr ? 1 : 0;
  }
  EXPECT_EQ(live3, 0);
  EXPECT_GT(live4, 0);
}

TEST(Stlb, FlushPfnRemovesAllMappingsOfFrame) {
  Stlb stlb(kFrames);
  stlb.Insert(5, 1, 77, true);
  stlb.Insert(9, 2, 77, true);
  stlb.Insert(6, 1, 78, true);
  stlb.FlushPfn(77);
  EXPECT_EQ(stlb.Lookup(5, 1), nullptr);
  EXPECT_EQ(stlb.Lookup(9, 2), nullptr);
  EXPECT_NE(stlb.Lookup(6, 1), nullptr);
}

TEST(Stlb, DirectMappedConflictEvicts) {
  Stlb stlb(kFrames);
  // Two VPNs hashing to the same slot: vpn and vpn ^ (asid<<7) structure
  // means vpn + kEntries collides for the same asid.
  stlb.Insert(5, 1, 10, true);
  stlb.Insert(5 + Stlb::kEntries, 1, 11, true);
  EXPECT_EQ(stlb.Lookup(5, 1), nullptr);  // Evicted by the conflict.
  ASSERT_NE(stlb.Lookup(5 + Stlb::kEntries, 1), nullptr);
  EXPECT_EQ(stlb.Lookup(5 + Stlb::kEntries, 1)->pfn, 11u);
}

TEST(Stlb, AsidCountsFollowEveryMutator) {
  Stlb stlb(kFrames);
  const auto count = [&stlb](hw::Asid asid) -> uint32_t {
    return asid < stlb.asid_entries().size() ? stlb.asid_entries()[asid] : 0;
  };
  stlb.Insert(5, 1, 10, true);
  stlb.Insert(6, 1, 11, true);
  stlb.Insert(7, 2, 10, true);
  EXPECT_EQ(count(1), 2u);
  EXPECT_EQ(count(2), 1u);
  EXPECT_EQ(count(3), 0u);
  // Overwrite: (261, 3) lands in (5, 1)'s slot and moves the count.
  stlb.Insert(261, 3, 12, false);
  EXPECT_EQ(stlb.Lookup(5, 1), nullptr);
  EXPECT_EQ(count(1), 1u);
  EXPECT_EQ(count(3), 1u);
  // Re-inserting in place keeps the count.
  stlb.Insert(261, 3, 13, true);
  EXPECT_EQ(count(3), 1u);
  stlb.Invalidate(6, 1);
  stlb.Invalidate(6, 1);  // Already gone: no second decrement.
  EXPECT_EQ(count(1), 0u);
  stlb.FlushPfn(10);  // Drops (7, 2).
  EXPECT_EQ(count(2), 0u);
  stlb.Insert(8, 2, 14, true);
  stlb.Insert(9, 2, 15, true);
  EXPECT_EQ(count(2), 2u);
  stlb.FlushAsid(2);
  EXPECT_EQ(count(2), 0u);
  EXPECT_EQ(stlb.Lookup(8, 2), nullptr);
  EXPECT_EQ(stlb.Lookup(9, 2), nullptr);
  EXPECT_EQ(count(3), 1u);
  stlb.FlushAsid(7);  // Never inserted: nothing to sweep.
  EXPECT_NE(stlb.Lookup(261, 3), nullptr);
  stlb.FlushAll();
  EXPECT_EQ(count(3), 0u);
  EXPECT_EQ(stlb.Lookup(261, 3), nullptr);
}

// Property: the STLB never *invents* a translation — every hit matches the
// most recent insert for that (vpn, asid).
TEST(Stlb, PropertyNeverInventsMappings) {
  Stlb stlb(kFrames);
  std::map<std::pair<hw::Vpn, hw::Asid>, std::pair<hw::PageId, bool>> model;
  SplitMix64 rng(17);
  for (int step = 0; step < 20000; ++step) {
    const hw::Vpn vpn = static_cast<hw::Vpn>(rng.NextBelow(1 << 14));
    const hw::Asid asid = static_cast<hw::Asid>(rng.NextBelow(8));
    switch (rng.NextBelow(3)) {
      case 0: {
        const hw::PageId pfn = static_cast<hw::PageId>(rng.NextBelow(1 << 16));
        const bool writable = rng.NextBelow(2) == 0;
        stlb.Insert(vpn, asid, pfn, writable);
        model[{vpn, asid}] = {pfn, writable};
        break;
      }
      case 1:
        stlb.Invalidate(vpn, asid);
        model.erase({vpn, asid});
        break;
      default: {
        const Stlb::Entry* entry = stlb.Lookup(vpn, asid);
        if (entry != nullptr) {
          auto it = model.find({vpn, asid});
          ASSERT_NE(it, model.end());
          EXPECT_EQ(entry->pfn, it->second.first);
          EXPECT_EQ(entry->writable, it->second.second);
        }
        break;
      }
    }
  }
}

// Property: the per-frame and per-asid counts stay exact under every
// mutator, and FlushPfn and FlushAsid (which trust them to stop early)
// leave no valid entry naming the flushed frame or asid. Few frames, asids
// and vpns force slot conflicts and overwrites of a slot's frame.
TEST(Stlb, PropertyFrameCountsMatchSlots) {
  constexpr uint32_t kFewFrames = 24;
  Stlb stlb(kFewFrames);
  SplitMix64 rng(20261016);
  for (int step = 0; step < 6000; ++step) {
    const hw::Vpn vpn = static_cast<hw::Vpn>(rng.NextBelow(2 * Stlb::kEntries));
    const hw::Asid asid = static_cast<hw::Asid>(rng.NextBelow(6));
    const hw::PageId pfn = static_cast<hw::PageId>(rng.NextBelow(kFewFrames));
    const uint64_t op = rng.NextBelow(100);
    if (op < 70) {
      stlb.Insert(vpn, asid, pfn, rng.NextBelow(2) == 0);
    } else if (op < 85) {
      stlb.Invalidate(vpn, asid);
    } else if (op < 92) {
      stlb.FlushPfn(pfn);
      for (const Stlb::Entry& entry : stlb.slots()) {
        ASSERT_FALSE(entry.valid && entry.pfn == pfn) << "step " << step;
      }
    } else if (op < 99) {
      stlb.FlushAsid(asid);
      for (const Stlb::Entry& entry : stlb.slots()) {
        ASSERT_FALSE(entry.valid && entry.asid == asid) << "step " << step;
      }
    } else {
      stlb.FlushAll();
    }
    std::vector<uint16_t> recount(kFewFrames, 0);
    std::vector<uint16_t> asid_recount(stlb.asid_entries().size(), 0);
    for (const Stlb::Entry& entry : stlb.slots()) {
      if (entry.valid) {
        ++recount[entry.pfn];
        ASSERT_LT(entry.asid, asid_recount.size()) << "step " << step;
        ++asid_recount[entry.asid];
      }
    }
    ASSERT_EQ(stlb.frame_entries(), recount) << "step " << step << " op " << op;
    ASSERT_EQ(stlb.asid_entries(), asid_recount) << "step " << step << " op " << op;
  }
}

}  // namespace
}  // namespace xok::aegis
