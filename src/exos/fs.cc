#include "src/exos/fs.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace xok::exos {

using hw::Instr;

namespace {

uint32_t ReadLe32(std::span<const uint8_t> bytes, size_t off) {
  uint32_t value = 0;
  std::memcpy(&value, &bytes[off], 4);
  return value;
}

void WriteLe32(std::span<uint8_t> bytes, size_t off, uint32_t value) {
  std::memcpy(&bytes[off], &value, 4);
}

constexpr size_t kDirEntryBytes = 32;  // 28-byte name + 4-byte inode.
constexpr size_t kDirEntries = hw::kPageBytes / kDirEntryBytes;
constexpr size_t kInodeBytes = 64;

// Superblock field offsets.
constexpr size_t kSuperMagicOff = 0;
constexpr size_t kSuperNextFreeOff = 4;
constexpr size_t kSuperJournalStartOff = 8;
constexpr size_t kSuperJournalBlocksOff = 12;

// Journal record block layouts. Checksums sit in the last word of the
// block so a torn write (which durably lands a *prefix* of the new words)
// can never produce a block that checksums as complete.
constexpr uint32_t kDescMagic = 0xd5c0de01;
constexpr uint32_t kCommitMagic = 0xd5c0de02;
constexpr size_t kChecksumOff = hw::kPageBytes - 4;

uint64_t ReadLe64(std::span<const uint8_t> bytes, size_t off) {
  uint64_t word = 0;
  std::memcpy(&word, &bytes[off], 8);
  return word;
}

// One step of a checksum lane. The rotate carries each product's high bits
// back down: without it a flip of bit 63 only ever reaches bit 63, so
// flipping it in two words of a lane would cancel out.
uint64_t Mix(uint64_t hash, uint64_t word) {
  return std::rotl((hash ^ word) * 0x9e3779b97f4a7c15ULL, 29);
}

// Header checksum of a descriptor/commit block: everything before the
// checksum word.
uint32_t HeaderChecksum(std::span<const uint8_t> block) {
  return JournalChecksum(block.first(kChecksumOff));
}

}  // namespace

uint32_t JournalChecksum(std::span<const uint8_t> bytes, uint32_t seed) {
  // Four independent multiply chains, so the host overlaps their latency.
  uint64_t lanes[4] = {seed, seed, seed, seed};
  size_t off = 0;
  for (; off + 32 <= bytes.size(); off += 32) {
    lanes[0] = Mix(lanes[0], ReadLe64(bytes, off));
    lanes[1] = Mix(lanes[1], ReadLe64(bytes, off + 8));
    lanes[2] = Mix(lanes[2], ReadLe64(bytes, off + 16));
    lanes[3] = Mix(lanes[3], ReadLe64(bytes, off + 24));
  }
  uint64_t hash = seed;
  for (const uint64_t lane : lanes) {
    hash = Mix(hash, lane);
  }
  for (; off + 8 <= bytes.size(); off += 8) {
    hash = Mix(hash, ReadLe64(bytes, off));
  }
  if (off < bytes.size()) {
    uint64_t word = 0;
    std::memcpy(&word, &bytes[off], bytes.size() - off);
    hash = Mix(hash, word);
  }
  return static_cast<uint32_t>(hash ^ (hash >> 32));
}

// --- BlockCache ---

Result<std::unique_ptr<BlockCache>> BlockCache::Create(
    Process& proc, const aegis::Aegis::DiskExtentGrant& extent, size_t slots) {
  if (slots == 0) {
    return Status::kErrInvalidArgs;
  }
  auto cache = std::unique_ptr<BlockCache>(new BlockCache(proc, extent));
  for (size_t i = 0; i < slots; ++i) {
    Result<aegis::PageGrant> frame = proc.kernel().SysAllocPage();
    if (!frame.ok()) {
      return frame.status();
    }
    cache->frames_.push_back(frame->page);
    cache->frame_caps_.push_back(frame->cap);
    cache->slots_.push_back(Slot{});
  }
  return cache;
}

size_t BlockCache::PickVictim() const {
  // Prefer an invalid slot.
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].valid) {
      return i;
    }
  }
  if (policy_ == Policy::kCustom && picker_) {
    const size_t choice = picker_(slots_);
    return choice < slots_.size() ? choice : 0;
  }
  size_t best = 0;
  for (size_t i = 1; i < slots_.size(); ++i) {
    const bool better = policy_ == Policy::kMru ? slots_[i].last_use > slots_[best].last_use
                                                : slots_[i].last_use < slots_[best].last_use;
    if (better) {
      best = i;
    }
  }
  return best;
}

Status BlockCache::Transfer(uint32_t block, hw::PageId frame, bool write) {
  uint64_t backoff = hw::kClockHz / 10000;  // 0.1 ms before the first retry.
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    const Status status =
        write ? proc_.kernel().SysDiskWrite(extent_.extent, extent_.cap, block, frame)
              : proc_.kernel().SysDiskRead(extent_.extent, extent_.cap, block, frame);
    if (status != Status::kErrIo) {
      return status;
    }
    // Media error: back off and retry. Storage robustness is library
    // policy here — a different libFS could fail fast or remap instead.
    ++io_retries_;
    proc_.kernel().SysSleep(backoff);
    backoff *= 2;
  }
  return Status::kErrIo;
}

size_t BlockCache::FindFrame(hw::PageId frame) const {
  const auto it = std::find(frames_.begin(), frames_.end(), frame);
  return it == frames_.end() ? kGone : static_cast<size_t>(it - frames_.begin());
}

Status BlockCache::WriteBack(size_t slot) {
  if (!slots_[slot].valid || !slots_[slot].dirty) {
    return Status::kOk;
  }
  const hw::PageId frame = frames_[slot];
  const Status status = Transfer(slots_[slot].block, frame, /*write=*/true);
  slot = FindFrame(frame);  // The write blocked: slots may have moved.
  if (status == Status::kOk && slot != kGone) {
    slots_[slot].dirty = false;
  }
  return status;
}

Result<std::span<uint8_t>> BlockCache::GetBlock(uint32_t block, bool for_write) {
  if (block >= extent_.blocks) {
    return Status::kErrOutOfRange;
  }
  proc_.machine().Charge(Instr(10));  // Cache lookup.
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].valid && slots_[i].block == block) {
      ++hits_;
      slots_[i].last_use = ++tick_;
      slots_[i].dirty = slots_[i].dirty || for_write;
      return proc_.machine().mem().PageSpan(frames_[i]);
    }
  }
  ++misses_;
  // The write-back and the read block on the disk, and a revoke handler
  // may run meanwhile (ReleaseCleanFrames erases slots). So the victim is
  // held by its frame, which that handler never releases, and re-resolved
  // after each blocking step; if repossession repair took the frame, the
  // miss starts over with a fresh victim.
  for (;;) {
    const size_t victim = PickVictim();
    const hw::PageId frame = frames_[victim];
    proc_.machine().Charge(Instr(20));  // Policy + bookkeeping.
    busy_frame_ = frame;
    Status status = WriteBack(victim);
    if (status == Status::kOk && FindFrame(frame) != kGone) {
      status = Transfer(block, frame, /*write=*/false);
    }
    busy_frame_ = kNoFrame;
    if (status != Status::kOk) {
      return status;
    }
    const size_t slot = FindFrame(frame);
    if (slot == kGone) {
      continue;
    }
    slots_[slot] = Slot{block, true, for_write, ++tick_};
    return proc_.machine().mem().PageSpan(frame);
  }
}

Status BlockCache::Flush() {
  // Attempt every slot even after a failure: one bad block must not leave
  // the rest of the dirty set stranded in volatile memory. The first error
  // is reported; dirty_remaining() tells the caller what is still at risk.
  // Slots may be released while a write-back blocks, so walk a snapshot of
  // the frames and pin each one for its write.
  Status first_error = Status::kOk;
  const std::vector<hw::PageId> frames = frames_;
  for (hw::PageId frame : frames) {
    const size_t slot = FindFrame(frame);
    if (slot == kGone) {
      continue;
    }
    busy_frame_ = frame;
    const Status status = WriteBack(slot);
    busy_frame_ = kNoFrame;
    if (status != Status::kOk && first_error == Status::kOk) {
      first_error = status;
    }
  }
  return first_error;
}

size_t BlockCache::dirty_remaining() const {
  size_t dirty = 0;
  for (const Slot& slot : slots_) {
    if (slot.valid && slot.dirty) {
      ++dirty;
    }
  }
  return dirty;
}

uint32_t BlockCache::ReleaseCleanFrames(uint32_t n) {
  uint32_t released = 0;
  // Walk backwards so erasing does not shift unvisited slots. Only invalid
  // or clean slots go — a dirty frame holds the sole copy of its block, and
  // this path must not block on a write-back — and never the frame of a
  // transfer in flight.
  for (size_t i = slots_.size(); i-- > 0 && released < n;) {
    if (slots_.size() <= 1) {
      break;
    }
    if ((slots_[i].valid && slots_[i].dirty) || frames_[i] == busy_frame_) {
      continue;
    }
    (void)proc_.kernel().SysDeallocPage(frames_[i], frame_caps_[i]);
    slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(i));
    frames_.erase(frames_.begin() + static_cast<ptrdiff_t>(i));
    frame_caps_.erase(frame_caps_.begin() + static_cast<ptrdiff_t>(i));
    ++released;
  }
  return released;
}

uint32_t BlockCache::RepairAfterRepossession(std::span<const hw::PageId> taken) {
  uint32_t repaired = 0;
  for (size_t i = slots_.size(); i-- > 0;) {
    if (std::find(taken.begin(), taken.end(), frames_[i]) == taken.end()) {
      continue;
    }
    ++repaired;
    Result<aegis::PageGrant> fresh = proc_.kernel().SysAllocPage();
    if (fresh.ok()) {
      frames_[i] = fresh->page;
      frame_caps_[i] = fresh->cap;
      slots_[i] = Slot{};  // Contents went with the old frame; re-read on use.
    } else if (slots_.size() > 1) {
      slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(i));
      frames_.erase(frames_.begin() + static_cast<ptrdiff_t>(i));
      frame_caps_.erase(frame_caps_.begin() + static_cast<ptrdiff_t>(i));
    } else {
      slots_[i] = Slot{};  // Last slot, no frame to be had: stays degraded.
    }
  }
  return repaired;
}

BlockCache::VictimPicker MakeScanAwarePicker(uint32_t metadata_blocks) {
  return [metadata_blocks](std::span<const BlockCache::Slot> slots) -> size_t {
    // MRU among data blocks; metadata stays resident.
    size_t best = SIZE_MAX;
    uint64_t best_use = 0;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].valid || slots[i].block < metadata_blocks) {
        continue;
      }
      if (best == SIZE_MAX || slots[i].last_use > best_use) {
        best = i;
        best_use = slots[i].last_use;
      }
    }
    if (best != SIZE_MAX) {
      return best;
    }
    // Only metadata resident: fall back to plain LRU.
    size_t lru = 0;
    for (size_t i = 1; i < slots.size(); ++i) {
      if (slots[i].last_use < slots[lru].last_use) {
        lru = i;
      }
    }
    return lru;
  };
}

// --- LibFs ---

Result<std::unique_ptr<LibFs>> LibFs::Format(Process& proc,
                                             const aegis::Aegis::DiskExtentGrant& extent,
                                             size_t cache_slots) {
  Options options;
  options.cache_slots = cache_slots;
  return Format(proc, extent, options);
}

Result<std::unique_ptr<LibFs>> LibFs::Format(Process& proc,
                                             const aegis::Aegis::DiskExtentGrant& extent,
                                             const Options& options) {
  if (options.journal_blocks > 0 && options.journal_blocks < kMaxTxnBlocks + 2) {
    return Status::kErrInvalidArgs;  // Not even one transaction fits.
  }
  const uint32_t data_start = kJournalStart + options.journal_blocks;
  if (extent.blocks < data_start + 1) {
    return Status::kErrInvalidArgs;
  }
  Result<std::unique_ptr<BlockCache>> cache =
      BlockCache::Create(proc, extent, options.cache_slots);
  if (!cache.ok()) {
    return cache.status();
  }
  auto fs = std::unique_ptr<LibFs>(new LibFs(proc, extent, std::move(*cache)));
  fs->journal_blocks_ = options.journal_blocks;
  fs->data_start_ = data_start;
  if (fs->journaled()) {
    // A stale journal from a previous tenant of this extent must not replay
    // over the fresh file system.
    const Status frame = fs->AllocRawFrame();
    if (frame != Status::kOk) {
      return frame;
    }
    std::vector<uint8_t> zero(hw::kPageBytes, 0);
    for (uint32_t j = 0; j < fs->journal_blocks_; ++j) {
      const Status wiped = fs->RawWrite(kJournalStart + j, zero);
      if (wiped != Status::kOk) {
        return wiped;
      }
    }
  }
  // Superblock.
  Result<std::span<uint8_t>> super = fs->cache_->GetBlock(kSuperBlock, /*for_write=*/true);
  if (!super.ok()) {
    return super.status();
  }
  std::fill(super->begin(), super->end(), uint8_t{0});
  WriteLe32(*super, kSuperMagicOff, kMagic);
  WriteLe32(*super, kSuperNextFreeOff, data_start);  // Next free data block.
  WriteLe32(*super, kSuperJournalStartOff, kJournalStart);
  WriteLe32(*super, kSuperJournalBlocksOff, fs->journal_blocks_);
  // Empty directory and inode table.
  for (uint32_t block : {kDirBlock, kInodeBlock}) {
    Result<std::span<uint8_t>> bytes = fs->cache_->GetBlock(block, /*for_write=*/true);
    if (!bytes.ok()) {
      return bytes.status();
    }
    std::fill(bytes->begin(), bytes->end(), uint8_t{0});
  }
  const Status sync = fs->Sync();
  if (sync != Status::kOk) {
    return sync;
  }
  return fs;
}

Result<std::unique_ptr<LibFs>> LibFs::Mount(Process& proc,
                                            const aegis::Aegis::DiskExtentGrant& extent,
                                            size_t cache_slots) {
  Result<std::unique_ptr<BlockCache>> cache = BlockCache::Create(proc, extent, cache_slots);
  if (!cache.ok()) {
    return cache.status();
  }
  auto fs = std::unique_ptr<LibFs>(new LibFs(proc, extent, std::move(*cache)));
  // The superblock is read raw, not through the cache: journal replay may
  // rewrite it, and a pre-replay copy must never linger in a cache slot.
  const Status frame = fs->AllocRawFrame();
  if (frame != Status::kOk) {
    return frame;
  }
  std::vector<uint8_t> super(hw::kPageBytes);
  const Status read = fs->RawRead(kSuperBlock, super);
  if (read != Status::kOk) {
    return read;
  }
  if (ReadLe32(super, kSuperMagicOff) != kMagic) {
    return Status::kErrBadState;
  }
  const uint32_t journal_start = ReadLe32(super, kSuperJournalStartOff);
  const uint32_t journal_blocks = ReadLe32(super, kSuperJournalBlocksOff);
  if (journal_blocks > 0 &&
      (journal_start != kJournalStart || journal_blocks < kMaxTxnBlocks + 2 ||
       kJournalStart + journal_blocks >= extent.blocks)) {
    return Status::kErrBadState;
  }
  fs->journal_blocks_ = journal_blocks;
  fs->data_start_ = kJournalStart + journal_blocks;
  if (fs->journaled()) {
    const Status replayed = fs->ReplayJournal();
    if (replayed != Status::kOk) {
      return replayed;
    }
  }
  return fs;
}

// --- Raw (cache-bypassing) journal I/O ---

Status LibFs::AllocRawFrame() {
  if (raw_frame_ok_) {
    return Status::kOk;
  }
  Result<aegis::PageGrant> frame = proc_.kernel().SysAllocPage();
  if (!frame.ok()) {
    return frame.status();
  }
  raw_frame_ = frame->page;
  raw_frame_ok_ = true;
  return Status::kOk;
}

uint32_t LibFs::RepairAfterRepossession(std::span<const hw::PageId> taken) {
  uint32_t repaired = 0;
  if (raw_frame_ok_ &&
      std::find(taken.begin(), taken.end(), raw_frame_) != taken.end()) {
    // The journal's DMA frame went to the abort protocol; the next raw
    // transfer re-allocates one (the frame carries no durable state).
    raw_frame_ok_ = false;
    ++repaired;
  }
  return repaired + cache_->RepairAfterRepossession(taken);
}

Status LibFs::RawWrite(uint32_t block, std::span<const uint8_t> bytes) {
  const Status frame = AllocRawFrame();  // Lazy re-allocation after repossession.
  if (frame != Status::kOk) {
    return frame;
  }
  auto frame_span = proc_.machine().mem().PageSpan(raw_frame_);
  proc_.machine().Charge(hw::kMemWordCopy * (hw::kPageBytes / 4));
  std::copy(bytes.begin(), bytes.end(), frame_span.begin());
  uint64_t backoff = hw::kClockHz / 10000;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const Status status =
        proc_.kernel().SysDiskWrite(extent_.extent, extent_.cap, block, raw_frame_);
    if (status != Status::kErrIo) {
      if (status == Status::kOk) {
        ++journal_block_writes_;
      }
      return status;
    }
    proc_.kernel().SysSleep(backoff);
    backoff *= 2;
  }
  return Status::kErrIo;
}

Status LibFs::RawRead(uint32_t block, std::span<uint8_t> out) {
  const Status frame = AllocRawFrame();  // Lazy re-allocation after repossession.
  if (frame != Status::kOk) {
    return frame;
  }
  uint64_t backoff = hw::kClockHz / 10000;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const Status status =
        proc_.kernel().SysDiskRead(extent_.extent, extent_.cap, block, raw_frame_);
    if (status == Status::kOk) {
      auto frame_span = proc_.machine().mem().PageSpan(raw_frame_);
      proc_.machine().Charge(hw::kMemWordCopy * (hw::kPageBytes / 4));
      std::copy(frame_span.begin(), frame_span.end(), out.begin());
      return Status::kOk;
    }
    if (status != Status::kErrIo) {
      return status;
    }
    proc_.kernel().SysSleep(backoff);
    backoff *= 2;
  }
  return Status::kErrIo;
}

Status LibFs::Barrier() {
  const Status status = proc_.kernel().SysDiskBarrier(extent_.extent, extent_.cap);
  if (status == Status::kOk) {
    ++barriers_issued_;
  }
  return status;
}

// --- Transactions ---

Result<std::span<uint8_t>> LibFs::TxnStage(uint32_t block) {
  for (TxnBlock& staged : Staged()) {
    if (staged.block == block) {
      return std::span<uint8_t>(staged.bytes);
    }
  }
  if (txn_blocks_ >= kMaxTxnBlocks) {
    return Status::kErrNoResources;
  }
  Result<std::span<uint8_t>> current = cache_->GetBlock(block, /*for_write=*/false);
  if (!current.ok()) {
    return current.status();
  }
  TxnBlock& staged = txn_[txn_blocks_++];
  staged.block = block;
  std::copy(current->begin(), current->end(), staged.bytes.begin());
  return std::span<uint8_t>(staged.bytes);
}

Status LibFs::CommitTxn() {
  if (txn_blocks_ == 0) {
    return Status::kOk;
  }
  if (journaled()) {
    const uint32_t record_blocks = 2 + txn_blocks_;
    if (journal_head_ + record_blocks > journal_blocks_) {
      // Journal full: checkpoint (home locations catch up, head rewinds).
      const Status checkpointed = Checkpoint();
      if (checkpointed != Status::kOk) {
        AbortTxn();
        return checkpointed;
      }
    }
    const uint32_t txn_id = next_txn_id_;
    // Descriptor: magic, id, count, target block list, tail checksum.
    scratch_.assign(hw::kPageBytes, 0);
    std::span<uint8_t> desc(scratch_);
    WriteLe32(desc, 0, kDescMagic);
    WriteLe32(desc, 4, txn_id);
    WriteLe32(desc, 8, txn_blocks_);
    for (uint32_t i = 0; i < txn_blocks_; ++i) {
      WriteLe32(desc, 12 + 4 * i, txn_[i].block);
    }
    proc_.machine().Charge(Instr(hw::kPageBytes / 4));  // Checksum pass.
    WriteLe32(desc, kChecksumOff, HeaderChecksum(desc));
    Status written = RawWrite(kJournalStart + journal_head_, desc);
    if (written != Status::kOk) {
      AbortTxn();
      return written;
    }
    // Payload blocks: the new images, verbatim.
    uint32_t payload_checksum = kJournalChecksumSeed;
    for (uint32_t i = 0; i < txn_blocks_; ++i) {
      proc_.machine().Charge(Instr(hw::kPageBytes / 4));
      payload_checksum = JournalChecksum(txn_[i].bytes, payload_checksum);
      written = RawWrite(kJournalStart + journal_head_ + 1 + i, txn_[i].bytes);
      if (written != Status::kOk) {
        AbortTxn();
        return written;
      }
    }
    // Commit block. It can only be durable together with (or after) the
    // payloads — the barrier below is the commit point, and a power cut
    // can at worst tear it into a block that fails its own checksum.
    scratch_.assign(hw::kPageBytes, 0);
    std::span<uint8_t> commit(scratch_);
    WriteLe32(commit, 0, kCommitMagic);
    WriteLe32(commit, 4, txn_id);
    WriteLe32(commit, 8, payload_checksum);
    proc_.machine().Charge(Instr(hw::kPageBytes / 4));
    WriteLe32(commit, kChecksumOff, HeaderChecksum(commit));
    written = RawWrite(kJournalStart + journal_head_ + 1 + record_blocks - 2, commit);
    if (written != Status::kOk) {
      AbortTxn();
      return written;
    }
    const Status committed = Barrier();
    if (committed != Status::kOk) {
      AbortTxn();
      return committed;
    }
    journal_head_ += record_blocks;
    ++next_txn_id_;
    ++txns_committed_;
  }
  // Only now may the new images enter the write-back cache: any eviction
  // that carries them toward their home locations happens strictly after
  // the commit barrier (write-ahead rule).
  for (const TxnBlock& staged : Staged()) {
    Result<std::span<uint8_t>> home = cache_->GetBlock(staged.block, /*for_write=*/true);
    if (!home.ok()) {
      return home.status();
    }
    proc_.machine().Charge(hw::kMemWordCopy * (hw::kPageBytes / 4));
    std::copy(staged.bytes.begin(), staged.bytes.end(), home->begin());
  }
  txn_blocks_ = 0;
  return Status::kOk;
}

Status LibFs::Checkpoint() {
  const Status flushed = cache_->Flush();
  if (flushed != Status::kOk) {
    return flushed;
  }
  const Status durable = Barrier();
  if (durable != Status::kOk) {
    return durable;
  }
  if (journaled()) {
    // Every committed transaction is home and durable; the journal can be
    // overwritten from the start. Transaction ids keep increasing, which
    // is what lets replay tell fresh records from stale ones.
    journal_head_ = 0;
    ++checkpoints_;
  }
  return Status::kOk;
}

Status LibFs::ReplayJournal() {
  // Snapshot the whole journal region, then walk records from the start.
  std::vector<std::vector<uint8_t>> journal(journal_blocks_);
  for (uint32_t j = 0; j < journal_blocks_; ++j) {
    journal[j].resize(hw::kPageBytes);
    const Status read = RawRead(kJournalStart + j, journal[j]);
    if (read != Status::kOk) {
      return read;
    }
  }
  const auto desc_valid = [](std::span<const uint8_t> block) {
    return ReadLe32(block, 0) == kDescMagic &&
           ReadLe32(block, kChecksumOff) == HeaderChecksum(block);
  };
  uint32_t head = 0;
  uint32_t last_id = 0;
  uint64_t replayed = 0;
  while (head + 2 + 1 <= journal_blocks_) {
    const std::span<const uint8_t> desc(journal[head]);
    proc_.machine().Charge(Instr(hw::kPageBytes / 4));
    if (!desc_valid(desc)) {
      break;  // Torn, stale-garbage, or never-written: end of the log.
    }
    const uint32_t txn_id = ReadLe32(desc, 4);
    const uint32_t count = ReadLe32(desc, 8);
    if (txn_id <= last_id || count == 0 || count > kMaxTxnBlocks ||
        head + 2 + count > journal_blocks_) {
      break;  // Stale record from an earlier checkpoint window.
    }
    bool targets_ok = true;
    for (uint32_t i = 0; i < count; ++i) {
      if (ReadLe32(desc, 12 + 4 * i) >= kJournalStart) {
        targets_ok = false;  // Only metadata blocks are ever journaled.
      }
    }
    if (!targets_ok) {
      break;
    }
    const std::span<const uint8_t> commit(journal[head + 1 + count]);
    proc_.machine().Charge(Instr(hw::kPageBytes / 4));
    if (ReadLe32(commit, 0) != kCommitMagic || ReadLe32(commit, 4) != txn_id ||
        ReadLe32(commit, kChecksumOff) != HeaderChecksum(commit)) {
      break;  // Uncommitted or torn: discard this and everything after.
    }
    uint32_t payload_checksum = kJournalChecksumSeed;
    for (uint32_t i = 0; i < count; ++i) {
      proc_.machine().Charge(Instr(hw::kPageBytes / 4));
      payload_checksum = JournalChecksum(journal[head + 1 + i], payload_checksum);
    }
    if (payload_checksum != ReadLe32(commit, 8)) {
      break;  // A payload block was torn by the crash.
    }
    // Committed: physical redo (idempotent — replaying twice is harmless).
    for (uint32_t i = 0; i < count; ++i) {
      const Status redone = RawWrite(ReadLe32(desc, 12 + 4 * i), journal[head + 1 + i]);
      if (redone != Status::kOk) {
        return redone;
      }
    }
    last_id = txn_id;
    ++replayed;
    head += 2 + count;
  }
  // New transaction ids must exceed every id still readable in the journal,
  // including stale committed records beyond the replay point — otherwise a
  // later mount could mistake such a leftover for fresh log tail.
  uint32_t max_id = last_id;
  for (uint32_t j = 0; j < journal_blocks_; ++j) {
    if (desc_valid(journal[j])) {
      max_id = std::max(max_id, ReadLe32(journal[j], 4));
    }
  }
  if (replayed > 0) {
    const Status durable = Barrier();
    if (durable != Status::kOk) {
      return durable;
    }
  }
  txns_replayed_ = replayed;
  next_txn_id_ = max_id + 1;
  journal_head_ = 0;
  return Status::kOk;
}

// --- Files ---

Result<LibFs::Inode> LibFs::LoadInode(FileHandle file) {
  if (file >= kMaxInodes) {
    return Status::kErrOutOfRange;
  }
  Result<std::span<uint8_t>> block = cache_->GetBlock(kInodeBlock, /*for_write=*/false);
  if (!block.ok()) {
    return block.status();
  }
  Inode inode;
  const size_t base = file * kInodeBytes;
  inode.used = ReadLe32(*block, base);
  inode.size = ReadLe32(*block, base + 4);
  for (uint32_t i = 0; i < kDirectBlocks; ++i) {
    inode.direct[i] = ReadLe32(*block, base + 8 + 4 * i);
  }
  return inode;
}

Result<FileHandle> LibFs::Create(std::string_view name) {
  if (name.empty() || name.size() > kMaxNameBytes) {
    return Status::kErrInvalidArgs;
  }
  if (Open(name).ok()) {
    return Status::kErrAlreadyExists;
  }
  // Find a free inode.
  FileHandle handle = kMaxInodes;
  for (FileHandle i = 0; i < kMaxInodes; ++i) {
    Result<Inode> inode = LoadInode(i);
    if (inode.ok() && inode->used == 0) {
      handle = i;
      break;
    }
  }
  if (handle == kMaxInodes) {
    return Status::kErrNoResources;
  }
  // Find a free directory entry and build the directory + inode images as
  // one transaction: a crash either shows the file (entry and inode both
  // live) or doesn't — never a dangling entry.
  Result<std::span<uint8_t>> dir = TxnStage(kDirBlock);
  if (!dir.ok()) {
    return dir.status();
  }
  size_t entry_index = kDirEntries;
  for (size_t e = 0; e < kDirEntries; ++e) {
    if ((*dir)[e * kDirEntryBytes] == 0) {
      entry_index = e;
      break;
    }
  }
  if (entry_index == kDirEntries) {
    AbortTxn();
    return Status::kErrNoResources;
  }
  uint8_t* entry = &(*dir)[entry_index * kDirEntryBytes];
  std::memcpy(entry, name.data(), name.size());
  entry[name.size()] = 0;
  WriteLe32(*dir, entry_index * kDirEntryBytes + 28, handle);
  Result<std::span<uint8_t>> inodes = TxnStage(kInodeBlock);
  if (!inodes.ok()) {
    AbortTxn();
    return inodes.status();
  }
  const size_t base = handle * kInodeBytes;
  std::fill(inodes->begin() + base, inodes->begin() + base + kInodeBytes, uint8_t{0});
  WriteLe32(*inodes, base, 1);  // used
  const Status committed = CommitTxn();
  if (committed != Status::kOk) {
    return committed;
  }
  return handle;
}

Result<FileHandle> LibFs::Open(std::string_view name) {
  Result<std::span<uint8_t>> dir = cache_->GetBlock(kDirBlock, /*for_write=*/false);
  if (!dir.ok()) {
    return dir.status();
  }
  for (size_t e = 0; e < kDirEntries; ++e) {
    const uint8_t* entry = &(*dir)[e * kDirEntryBytes];
    if (entry[0] == 0) {
      continue;
    }
    const size_t len = strnlen(reinterpret_cast<const char*>(entry), 28);
    if (len == name.size() && std::memcmp(entry, name.data(), len) == 0) {
      return ReadLe32(*dir, e * kDirEntryBytes + 28);
    }
  }
  return Status::kErrNotFound;
}

Result<uint32_t> LibFs::FileSize(FileHandle file) {
  Result<Inode> inode = LoadInode(file);
  if (!inode.ok()) {
    return inode.status();
  }
  if (inode->used == 0) {
    return Status::kErrNotFound;
  }
  return inode->size;
}

Result<uint32_t> LibFs::Read(FileHandle file, uint32_t offset, std::span<uint8_t> out) {
  Result<Inode> inode = LoadInode(file);
  if (!inode.ok()) {
    return inode.status();
  }
  if (inode->used == 0) {
    return Status::kErrNotFound;
  }
  if (offset >= inode->size) {
    return 0u;
  }
  uint32_t todo = std::min<uint32_t>(static_cast<uint32_t>(out.size()), inode->size - offset);
  uint32_t done = 0;
  while (done < todo) {
    const uint32_t pos = offset + done;
    const uint32_t index = pos / hw::kPageBytes;
    const uint32_t in_block = pos % hw::kPageBytes;
    const uint32_t chunk = std::min(todo - done, hw::kPageBytes - in_block);
    Result<std::span<uint8_t>> block =
        cache_->GetBlock(inode->direct[index], /*for_write=*/false);
    if (!block.ok()) {
      return block.status();
    }
    proc_.machine().Charge(hw::kMemWordCopy * ((chunk + 3) / 4));  // Copy to the caller.
    std::memcpy(&out[done], &(*block)[in_block], chunk);
    done += chunk;
  }
  return done;
}

Status LibFs::Write(FileHandle file, uint32_t offset, std::span<const uint8_t> data) {
  Result<Inode> loaded = LoadInode(file);
  if (!loaded.ok()) {
    return loaded.status();
  }
  Inode inode = *loaded;
  if (inode.used == 0) {
    return Status::kErrNotFound;
  }
  if (offset + data.size() > kMaxFileBytes) {
    return Status::kErrOutOfRange;
  }
  if (offset > inode.size) {
    return Status::kErrOutOfRange;  // No holes in this little FS.
  }
  bool meta_dirty = false;
  uint32_t done = 0;
  while (done < data.size()) {
    const uint32_t pos = offset + done;
    const uint32_t index = pos / hw::kPageBytes;
    const uint32_t in_block = pos % hw::kPageBytes;
    const uint32_t chunk =
        std::min<uint32_t>(static_cast<uint32_t>(data.size()) - done, hw::kPageBytes - in_block);
    if (index >= kDirectBlocks) {
      AbortTxn();
      return Status::kErrOutOfRange;
    }
    if (pos >= inode.size && in_block == 0 && inode.direct[index] == 0) {
      // Allocate from the staged superblock image, so the bumped allocator
      // commits atomically with the inode that references the new block.
      Result<std::span<uint8_t>> super = TxnStage(kSuperBlock);
      if (!super.ok()) {
        AbortTxn();
        return super.status();
      }
      const uint32_t fresh = ReadLe32(*super, kSuperNextFreeOff);
      if (fresh >= extent_.blocks) {
        AbortTxn();
        return Status::kErrNoResources;
      }
      WriteLe32(*super, kSuperNextFreeOff, fresh + 1);
      inode.direct[index] = fresh;
      meta_dirty = true;
    }
    // Data blocks go through the cache un-journaled (metadata journaling
    // only): a crash may lose un-synced data, never metadata integrity.
    Result<std::span<uint8_t>> block = cache_->GetBlock(inode.direct[index], /*for_write=*/true);
    if (!block.ok()) {
      AbortTxn();
      return block.status();
    }
    proc_.machine().Charge(hw::kMemWordCopy * ((chunk + 3) / 4));
    std::memcpy(&(*block)[in_block], &data[done], chunk);
    done += chunk;
  }
  const uint32_t new_size = std::max(inode.size, offset + static_cast<uint32_t>(data.size()));
  if (new_size != inode.size) {
    meta_dirty = true;
    inode.size = new_size;
  }
  if (!meta_dirty) {
    return Status::kOk;  // Pure overwrite: no metadata transaction needed.
  }
  Result<std::span<uint8_t>> inodes = TxnStage(kInodeBlock);
  if (!inodes.ok()) {
    AbortTxn();
    return inodes.status();
  }
  const size_t base = file * kInodeBytes;
  WriteLe32(*inodes, base, inode.used);
  WriteLe32(*inodes, base + 4, inode.size);
  for (uint32_t i = 0; i < kDirectBlocks; ++i) {
    WriteLe32(*inodes, base + 8 + 4 * i, inode.direct[i]);
  }
  return CommitTxn();
}

Status LibFs::Sync() {
  return Checkpoint();
}

// --- Fsck ---

Status LibFs::Fsck() {
  fsck_error_.clear();
  const auto fail = [this](std::string message) {
    fsck_error_ = std::move(message);
    return Status::kErrBadState;
  };
  // Superblock. Copy the fields out: the span dies at the next GetBlock.
  Result<std::span<uint8_t>> super = cache_->GetBlock(kSuperBlock, /*for_write=*/false);
  if (!super.ok()) {
    return super.status();
  }
  if (ReadLe32(*super, kSuperMagicOff) != kMagic) {
    return fail("superblock: bad magic");
  }
  const uint32_t next_free = ReadLe32(*super, kSuperNextFreeOff);
  const uint32_t journal_start = ReadLe32(*super, kSuperJournalStartOff);
  const uint32_t journal_blocks = ReadLe32(*super, kSuperJournalBlocksOff);
  if (journal_blocks != journal_blocks_ ||
      (journal_blocks > 0 && journal_start != kJournalStart)) {
    return fail("superblock: journal geometry mismatch");
  }
  if (next_free < data_start_ || next_free > extent_.blocks) {
    return fail("superblock: allocator out of range (next_free=" + std::to_string(next_free) +
                ")");
  }
  // Inode table. Copy it out before touching the directory block.
  Result<std::span<uint8_t>> inode_block = cache_->GetBlock(kInodeBlock, /*for_write=*/false);
  if (!inode_block.ok()) {
    return inode_block.status();
  }
  std::vector<Inode> inodes(kMaxInodes);
  for (uint32_t n = 0; n < kMaxInodes; ++n) {
    const size_t base = n * kInodeBytes;
    inodes[n].used = ReadLe32(*inode_block, base);
    inodes[n].size = ReadLe32(*inode_block, base + 4);
    for (uint32_t i = 0; i < kDirectBlocks; ++i) {
      inodes[n].direct[i] = ReadLe32(*inode_block, base + 8 + 4 * i);
    }
  }
  std::vector<uint32_t> claimed;
  for (uint32_t n = 0; n < kMaxInodes; ++n) {
    const Inode& inode = inodes[n];
    if (inode.used == 0) {
      continue;
    }
    if (inode.used != 1) {
      return fail("inode " + std::to_string(n) + ": bad used flag");
    }
    if (inode.size > kMaxFileBytes) {
      return fail("inode " + std::to_string(n) + ": size out of range");
    }
    const uint32_t blocks = (inode.size + hw::kPageBytes - 1) / hw::kPageBytes;
    for (uint32_t i = 0; i < kDirectBlocks; ++i) {
      if (i < blocks) {
        if (inode.direct[i] < data_start_ || inode.direct[i] >= next_free) {
          return fail("inode " + std::to_string(n) + ": direct block " +
                      std::to_string(inode.direct[i]) + " outside allocated data region");
        }
        claimed.push_back(inode.direct[i]);
      } else if (inode.direct[i] != 0) {
        return fail("inode " + std::to_string(n) + ": direct pointer past EOF");
      }
    }
  }
  std::sort(claimed.begin(), claimed.end());
  if (std::adjacent_find(claimed.begin(), claimed.end()) != claimed.end()) {
    return fail("data block claimed by two files");
  }
  // Directory: well-formed names, live targets, and a bijection with the
  // used inodes.
  Result<std::span<uint8_t>> dir = cache_->GetBlock(kDirBlock, /*for_write=*/false);
  if (!dir.ok()) {
    return dir.status();
  }
  std::vector<bool> referenced(kMaxInodes, false);
  for (size_t e = 0; e < kDirEntries; ++e) {
    const uint8_t* entry = &(*dir)[e * kDirEntryBytes];
    if (entry[0] == 0) {
      continue;
    }
    const size_t len = strnlen(reinterpret_cast<const char*>(entry), 28);
    if (len > kMaxNameBytes) {
      return fail("directory entry " + std::to_string(e) + ": unterminated name");
    }
    const uint32_t target = ReadLe32(*dir, e * kDirEntryBytes + 28);
    if (target >= kMaxInodes) {
      return fail("directory entry " + std::to_string(e) + ": inode out of range");
    }
    if (inodes[target].used == 0) {
      return fail("directory entry " + std::to_string(e) + ": dangling (inode " +
                  std::to_string(target) + " free)");
    }
    if (referenced[target]) {
      return fail("inode " + std::to_string(target) + " referenced by two directory entries");
    }
    referenced[target] = true;
  }
  for (uint32_t n = 0; n < kMaxInodes; ++n) {
    if (inodes[n].used == 1 && !referenced[n]) {
      return fail("inode " + std::to_string(n) + " used but unreachable from the directory");
    }
  }
  return Status::kOk;
}

}  // namespace xok::exos
