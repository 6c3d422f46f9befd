// Crash consistency under power failure: a seeded sweep of power-cut
// points over a create/write/sync workload. After every cut the surviving
// platter image is rebooted into a fresh machine; the remounted file
// system must replay its journal, pass Fsck, and honour prefix semantics —
// everything acknowledged by a Sync (and every committed metadata
// transaction) is intact, no matter where the world stopped.
//
// The simulation makes "power failure" literal: the FaultPlan schedules an
// InterruptSource::kPowerFail at an absolute cycle, the kernel halts
// mid-instruction-charge, the disk's volatile write buffer dies (with
// seeded torn-write prefixes), and only barrier-ordered platter contents
// carry over to the next boot via Disk::TakeImage/RestoreImage.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rand.h"
#include "src/exos/fs.h"
#include "src/hw/disk.h"

namespace xok::exos {
namespace {

constexpr uint32_t kDiskBlocks = 256;
constexpr uint32_t kExtentBlocks = 128;
constexpr size_t kCacheSlots = 6;
constexpr const char* kFileNames[3] = {"log.a", "log.b", "log.c"};
constexpr const char* kLateFile = "late.d";
constexpr int kRounds = 24;

uint8_t PatternByte(size_t file, size_t offset) {
  return static_cast<uint8_t>(file * 131 + offset * 7 + 13);
}

// Everything the environment fiber touches that owns heap memory lives
// here, on the host test stack: a power cut abandons the fiber without
// unwinding it, so fiber-stack locals never run destructors.
struct WorkloadState {
  std::unique_ptr<LibFs> fs;
  std::array<FileHandle, 3> handles = {};
  // Logical contents now, and as of the last acknowledged Sync.
  std::map<std::string, std::vector<uint8_t>> pending;
  std::map<std::string, std::vector<uint8_t>> synced;
  // Files whose Create returned: committed metadata, durable via journal.
  std::map<std::string, uint32_t> committed_sizes;
  std::vector<std::string> created;
  std::vector<uint8_t> chunk;
  uint64_t end_cycle = 0;
  bool completed = false;
  Status failure = Status::kOk;
};

// Boot 0: format the extent and create the three base files, no faults.
void FormatWorkload(Process& p, aegis::Aegis& kernel, WorkloadState& state) {
  Result<aegis::Aegis::DiskExtentGrant> extent = kernel.SysAllocDiskExtent(kExtentBlocks);
  if (!extent.ok()) {
    state.failure = extent.status();
    return;
  }
  Result<std::unique_ptr<LibFs>> fs = LibFs::Format(p, *extent, kCacheSlots);
  if (!fs.ok()) {
    state.failure = fs.status();
    return;
  }
  state.fs = std::move(*fs);
  for (size_t f = 0; f < 3; ++f) {
    Result<FileHandle> handle = state.fs->Create(kFileNames[f]);
    if (!handle.ok()) {
      state.failure = handle.status();
      return;
    }
  }
  if (state.fs->Sync() != Status::kOk) {
    state.failure = Status::kErrIo;
    return;
  }
  state.completed = true;
}

// The crash-exposed workload: mount, then rounds of appends with periodic
// Syncs, plus one mid-run Create. Appends only — so the synced prefix of
// every file is never rewritten and can be byte-compared after recovery.
void AppendWorkload(Process& p, aegis::Aegis& kernel, WorkloadState& state) {
  Result<aegis::Aegis::DiskExtentGrant> extent = kernel.SysAllocDiskExtent(kExtentBlocks);
  if (!extent.ok()) {
    state.failure = extent.status();
    return;
  }
  Result<std::unique_ptr<LibFs>> fs = LibFs::Mount(p, *extent, kCacheSlots);
  if (!fs.ok()) {
    state.failure = fs.status();
    return;
  }
  state.fs = std::move(*fs);
  for (size_t f = 0; f < 3; ++f) {
    Result<FileHandle> handle = state.fs->Open(kFileNames[f]);
    if (!handle.ok()) {
      state.failure = handle.status();
      return;
    }
    state.handles[f] = *handle;
    state.created.push_back(kFileNames[f]);
    state.committed_sizes[kFileNames[f]] = 0;
  }
  for (int round = 0; round < kRounds; ++round) {
    if (round == kRounds / 2) {
      // A creation in the thick of the run: once Create returns, the
      // journal commit makes the file durable even without a Sync. (It may
      // already exist if an earlier boot of this image got this far.)
      Result<FileHandle> late = state.fs->Open(kLateFile);
      if (!late.ok()) {
        late = state.fs->Create(kLateFile);
      }
      if (!late.ok()) {
        state.failure = late.status();
        return;
      }
      state.created.push_back(kLateFile);
      state.committed_sizes[kLateFile] = 0;
    }
    const size_t f = round % 3;
    std::vector<uint8_t>& logical = state.pending[kFileNames[f]];
    const size_t offset = logical.size();
    const size_t length = 700 + (round % 5) * 451;  // Crosses block edges.
    state.chunk.assign(length, 0);
    for (size_t i = 0; i < length; ++i) {
      state.chunk[i] = PatternByte(f, offset + i);
    }
    const Status wrote = state.fs->Write(state.handles[f], static_cast<uint32_t>(offset),
                                         state.chunk);
    if (wrote != Status::kOk) {
      state.failure = wrote;
      return;
    }
    logical.insert(logical.end(), state.chunk.begin(), state.chunk.end());
    state.committed_sizes[kFileNames[f]] = static_cast<uint32_t>(logical.size());
    if (round % 4 == 3) {
      const Status synced = state.fs->Sync();
      if (synced != Status::kOk) {
        state.failure = synced;
        return;
      }
      state.synced = state.pending;
    }
  }
  state.end_cycle = p.machine().clock().now();
  state.completed = true;
}

// Boots a machine over `image`, runs `body` in one environment, and (if
// the plan cuts power) returns the surviving platter contents.
std::vector<uint8_t> BootAndRun(const std::vector<uint8_t>& image, const hw::FaultPlan* plan,
                                const std::function<void(Process&, aegis::Aegis&)>& body,
                                bool* powered_off = nullptr) {
  hw::Machine machine(hw::Machine::Config{.phys_pages = 512, .name = "crash"});
  aegis::Aegis kernel(machine);
  hw::Disk disk(machine, kDiskBlocks);
  if (!image.empty()) {
    EXPECT_EQ(disk.RestoreImage(image), Status::kOk);
  }
  kernel.AttachDisk(&disk);
  if (plan != nullptr) {
    kernel.InstallFaultPlan(*plan);
  }
  Process proc(kernel, [&](Process& p) { body(p, kernel); });
  EXPECT_TRUE(proc.ok());
  kernel.Run();
  if (powered_off != nullptr) {
    *powered_off = kernel.powered_off();
  }
  return disk.TakeImage();
}

// Reboot over the surviving image and check every recovery invariant.
void VerifyRecovered(const std::vector<uint8_t>& image, const WorkloadState& crashed,
                     const char* label) {
  struct VerifyState {
    std::unique_ptr<LibFs> fs;
    Status mount = Status::kErrInternal;
    Status fsck = Status::kErrInternal;
    std::string fsck_error;
    uint64_t replayed = 0;
    std::map<std::string, uint32_t> sizes;
    std::map<std::string, std::vector<uint8_t>> contents;
    std::vector<uint8_t> buffer;
  } v;
  BootAndRun(image, nullptr, [&](Process& p, aegis::Aegis& kernel) {
    Result<aegis::Aegis::DiskExtentGrant> extent = kernel.SysAllocDiskExtent(kExtentBlocks);
    if (!extent.ok()) {
      return;
    }
    Result<std::unique_ptr<LibFs>> fs = LibFs::Mount(p, *extent, kCacheSlots);
    v.mount = fs.status();
    if (!fs.ok()) {
      return;
    }
    v.fs = std::move(*fs);
    v.replayed = v.fs->txns_replayed();
    v.fsck = v.fs->Fsck();
    v.fsck_error = v.fs->fsck_error();
    for (const std::string& name : crashed.created) {
      Result<FileHandle> handle = v.fs->Open(name);
      if (!handle.ok()) {
        continue;  // Absence is asserted host-side.
      }
      Result<uint32_t> size = v.fs->FileSize(*handle);
      if (!size.ok()) {
        continue;
      }
      v.sizes[name] = *size;
      v.buffer.assign(*size, 0);
      if (v.fs->Read(*handle, 0, v.buffer).ok()) {
        v.contents[name] = v.buffer;
      }
    }
  });
  ASSERT_EQ(v.mount, Status::kOk) << label << ": remount failed";
  EXPECT_EQ(v.fsck, Status::kOk) << label << ": fsck: " << v.fsck_error;
  // Committed metadata: every file whose Create returned exists, with at
  // least its last committed size.
  for (const std::string& name : crashed.created) {
    ASSERT_TRUE(v.sizes.count(name)) << label << ": lost committed file " << name;
    EXPECT_GE(v.sizes.at(name), crashed.committed_sizes.at(name))
        << label << ": committed size regressed for " << name;
  }
  // Prefix semantics: data acknowledged by a Sync is intact, byte for byte.
  for (const auto& [name, synced_bytes] : crashed.synced) {
    ASSERT_TRUE(v.contents.count(name)) << label << ": unreadable synced file " << name;
    const std::vector<uint8_t>& now = v.contents.at(name);
    ASSERT_GE(now.size(), synced_bytes.size()) << label << ": synced data truncated in " << name;
    for (size_t i = 0; i < synced_bytes.size(); ++i) {
      ASSERT_EQ(now[i], synced_bytes[i]) << label << ": " << name << " byte " << i;
    }
  }
}

std::vector<uint8_t> FormattedImage() {
  WorkloadState format_state;
  std::vector<uint8_t> image =
      BootAndRun({}, nullptr,
                 [&](Process& p, aegis::Aegis& k) { FormatWorkload(p, k, format_state); });
  EXPECT_TRUE(format_state.completed);
  EXPECT_EQ(format_state.failure, Status::kOk);
  format_state.fs.reset();
  return image;
}

uint64_t DryRunCycles(const std::vector<uint8_t>& image) {
  WorkloadState dry;
  BootAndRun(image, nullptr, [&](Process& p, aegis::Aegis& k) { AppendWorkload(p, k, dry); });
  EXPECT_TRUE(dry.completed);
  EXPECT_EQ(dry.failure, Status::kOk);
  dry.fs.reset();
  return dry.end_cycle;
}

// The sweep: cut the power at a grid of points across the whole workload
// (including mount-time replay itself) and recover after each.
class FsCrashSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FsCrashSweep, PowerCutThenRemountIsCleanAndKeepsSyncedData) {
  const std::vector<uint8_t> base = FormattedImage();
  const uint64_t total = DryRunCycles(base);
  ASSERT_GT(total, 0u);
  const uint32_t percent = GetParam();
  const uint64_t cut = total * percent / 100;

  for (const uint32_t torn_per_mille : {0u, 500u}) {
    WorkloadState state;
    hw::FaultPlan plan;
    plan.seed = 0x9a0 + percent * 2 + torn_per_mille;
    plan.disk_torn_per_mille = torn_per_mille;
    plan.PowerCutAt(cut);
    bool powered_off = false;
    const std::vector<uint8_t> image =
        BootAndRun(base, &plan,
                   [&](Process& p, aegis::Aegis& k) { AppendWorkload(p, k, state); },
                   &powered_off);
    ASSERT_TRUE(powered_off) << "cut at " << percent << "% never fired";
    ASSERT_FALSE(state.completed);
    const std::string label =
        "cut@" + std::to_string(percent) + "% torn=" + std::to_string(torn_per_mille);
    VerifyRecovered(image, state, label.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(CutPoints, FsCrashSweep,
                         ::testing::Values(2, 5, 9, 14, 21, 30, 38, 47, 55, 64, 73, 82, 91, 97));

// Double failure: power also dies during recovery itself. Replay must be
// idempotent — a second reboot over the half-recovered image still works.
TEST(FsCrashTest, PowerCutDuringRecoveryIsIdempotent) {
  const std::vector<uint8_t> base = FormattedImage();
  // Crash the workload mid-run first, so there is a journal to replay.
  WorkloadState state;
  hw::FaultPlan plan;
  plan.seed = 0xdead;
  plan.disk_torn_per_mille = 300;
  plan.PowerCutAt(DryRunCycles(base) / 2);
  const std::vector<uint8_t> crashed =
      BootAndRun(base, &plan, [&](Process& p, aegis::Aegis& k) { AppendWorkload(p, k, state); });

  // Now cut power at a sweep of points inside the remount itself.
  for (const uint64_t recovery_cut :
       {hw::kClockHz / 1000, hw::kClockHz / 100, hw::kClockHz / 20}) {
    WorkloadState second;
    hw::FaultPlan recovery_plan;
    recovery_plan.seed = 0xbeef + recovery_cut;
    recovery_plan.disk_torn_per_mille = 300;
    recovery_plan.PowerCutAt(recovery_cut);
    const std::vector<uint8_t> twice_crashed = BootAndRun(
        crashed, &recovery_plan,
        [&](Process& p, aegis::Aegis& k) { AppendWorkload(p, k, second); });
    const std::string label = "recovery cut@" + std::to_string(recovery_cut);
    VerifyRecovered(twice_crashed, state, label.c_str());
  }
}

// Silent media corruption, not a torn write: the same bit flipped in two
// different 8-byte words of a committed record's payload block. Replay must
// reject the record by its payload checksum, whichever bit of the word it
// is (a word hash that never mixes high bits down lets a pair of bit-63
// flips cancel), and the file system must stay consistent without it.
TEST(FsCrashTest, PayloadBitFlipsDiscardTheRecord) {
  const std::vector<uint8_t> base = FormattedImage();
  // One committed transaction (a Create) and no checkpoint: the record is
  // durable in the journal while its home blocks sit in the cache.
  struct {
    std::unique_ptr<LibFs> fs;
    uint32_t first_block = 0;
    Status created = Status::kErrInternal;
  } commit;
  const std::vector<uint8_t> committed =
      BootAndRun(base, nullptr, [&](Process& p, aegis::Aegis& k) {
        Result<aegis::Aegis::DiskExtentGrant> extent = k.SysAllocDiskExtent(kExtentBlocks);
        if (!extent.ok()) {
          return;
        }
        commit.first_block = extent->first_block;
        Result<std::unique_ptr<LibFs>> fs = LibFs::Mount(p, *extent, kCacheSlots);
        if (!fs.ok()) {
          return;
        }
        commit.fs = std::move(*fs);
        commit.created = commit.fs->Create(kLateFile).status();
      });
  ASSERT_EQ(commit.created, Status::kOk);
  commit.fs.reset();

  // Mounts `image`; reports how many records replayed, fsck, and whether
  // the created file exists.
  const auto remount = [](const std::vector<uint8_t>& image, uint64_t* replayed, Status* fsck,
                          bool* has_file) {
    std::unique_ptr<LibFs> fs_owner;
    BootAndRun(image, nullptr, [&](Process& p, aegis::Aegis& k) {
      Result<aegis::Aegis::DiskExtentGrant> extent = k.SysAllocDiskExtent(kExtentBlocks);
      if (!extent.ok()) {
        return;
      }
      Result<std::unique_ptr<LibFs>> fs = LibFs::Mount(p, *extent, kCacheSlots);
      if (!fs.ok()) {
        return;
      }
      fs_owner = std::move(*fs);
      *replayed = fs_owner->txns_replayed();
      *fsck = fs_owner->Fsck();
      *has_file = fs_owner->Open(kLateFile).ok();
    });
  };
  uint64_t replayed = 0;
  Status fsck = Status::kErrInternal;
  bool has_file = false;
  remount(committed, &replayed, &fsck, &has_file);
  ASSERT_EQ(replayed, 1u) << "the uncorrupted record must replay";
  ASSERT_EQ(fsck, Status::kOk);
  ASSERT_TRUE(has_file);

  // The first payload block follows the descriptor at the journal's start
  // (LibFs::kJournalStart, extent block 3).
  const size_t payload = (static_cast<size_t>(commit.first_block) + 3 + 1) * hw::kPageBytes;
  for (const uint32_t bit : {0u, 31u, 32u, 63u}) {
    std::vector<uint8_t> image = committed;
    for (const size_t word : {size_t{5}, size_t{300}}) {
      image[payload + word * 8 + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    replayed = 1;
    fsck = Status::kErrInternal;
    has_file = true;
    remount(image, &replayed, &fsck, &has_file);
    EXPECT_EQ(replayed, 0u) << "bit " << bit << ": corrupted record replayed";
    EXPECT_EQ(fsck, Status::kOk) << "bit " << bit;
    EXPECT_FALSE(has_file) << "bit " << bit;
  }
}

// Chaos arm: random workloads with media errors, torn writes, and a power
// cut landing wherever the seed says — recovery must always hold.
class FsCrashChaos : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FsCrashChaos, SeededChaosRecoversEveryTime) {
  const uint64_t seed = GetParam();
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const std::vector<uint8_t> base = FormattedImage();
  const uint64_t total = DryRunCycles(base);

  std::vector<uint8_t> image = base;
  WorkloadState last_state;
  // Several consecutive power cuts over the same platter, like a machine
  // with a failing supply: each boot continues from the previous image.
  for (int boot = 0; boot < 3; ++boot) {
    WorkloadState state;
    hw::FaultPlan plan;
    plan.seed = seed * 101 + boot;
    plan.disk_torn_per_mille = 300;
    plan.disk_error_per_mille = 20;
    plan.PowerCutAt(total / 10 + rng.NextBelow(total));
    bool powered_off = false;
    image = BootAndRun(image, &plan,
                       [&](Process& p, aegis::Aegis& k) { AppendWorkload(p, k, state); },
                       &powered_off);
    if (!powered_off) {
      // The workload outran the cut (or died on injected media errors
      // first) — either way the image must still recover below.
      ASSERT_TRUE(state.completed || state.failure != Status::kOk);
    }
    last_state = std::move(state);
    last_state.fs.reset();
    // Chaos boots may fail mid-run from injected media errors; recovery
    // invariants are checked against what actually committed.
    const std::string label = "chaos seed=" + std::to_string(seed) +
                              " boot=" + std::to_string(boot);
    // A boot that failed before opening the files has nothing to verify.
    if (last_state.created.empty()) {
      continue;
    }
    VerifyRecovered(image, last_state, label.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsCrashChaos, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace xok::exos
