// LibFS: a library file system with application-controlled caching and
// application-owned crash consistency.
//
// The paper's §2 motivates exokernels with storage: "database implementors
// must struggle to emulate random-access record storage on top of file
// systems" (Stonebraker [47]) and "application-level control over file
// caching can reduce application running time by 45%" (Cao et al. [10]).
// Here the *entire* file system is library code on top of Aegis's
// capability-protected disk extents: layout, metadata, the block-cache
// replacement policy — and durability policy. The kernel exposes exactly
// one ordering primitive (SysDiskBarrier); everything built on it — the
// physical-redo journal, commit checksums, mount-time replay, fsck — is
// untrusted library code, so a different application could run with no
// journal at all (Options::journal_blocks = 0 reproduces the original
// write-back-only LibFS, and is the ablation baseline in
// bench_abl_journal).
//
// On-extent layout (4 KB blocks):
//   block 0 — superblock: magic, next free data block, journal geometry
//   block 1 — root directory: 128 entries of {28-byte name, inode index}
//   block 2 — inode table: 64 inodes of {used, size, 12 direct blocks}
//   blocks 3 .. 3+J-1 — journal (J = journal_blocks, 0 if unjournaled)
//   blocks 3+J .. — data
//
// Journal format (physical redo, one transaction per metadata mutation):
//   descriptor block {magic, txn id, count, target blocks, checksum}
//   `count` payload blocks (verbatim new contents of the targets)
//   commit block {magic, txn id, checksum over all payloads, checksum}
// A mutation stages the new metadata images, appends the transaction,
// issues a barrier (commit point), and only then lets the new images into
// the write-back cache — so a torn or lost home-location write is always
// covered by a committed, replayable journal record. Mount() replays every
// committed transaction (idempotent physical redo) and discards torn or
// uncommitted tails by checksum; Sync() checkpoints (flush + barrier) and
// resets the journal head.
#ifndef XOK_SRC_EXOS_FS_H_
#define XOK_SRC_EXOS_FS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/exos/process.h"

namespace xok::exos {

inline constexpr uint32_t kJournalChecksumSeed = 2166136261u;

// The journal's checksum: words are 8-byte little endian, word i of each
// 32-byte group feeds lane i % 4 of four rotate-multiply lanes, the lanes
// fold in order into one hash, and the words after the last whole group
// (a short tail zero-padded into one last word) go into that hash, which
// then folds to 32 bits. `seed` chains the payload checksum across a
// record's blocks. The library charges it as one instruction per 4 bytes.
uint32_t JournalChecksum(std::span<const uint8_t> bytes, uint32_t seed = kJournalChecksumSeed);

// A write-back block cache over one disk extent, with a pluggable
// replacement policy. Slots are frames the application owns.
class BlockCache {
 public:
  enum class Policy : uint8_t {
    kLru,     // The fixed policy a traditional kernel would impose.
    kMru,     // Evict most-recently-used: optimal-ish for looping scans.
    kCustom,  // Application-provided victim picker.
  };

  struct Slot {
    uint32_t block = 0;      // Extent-relative block number.
    bool valid = false;
    bool dirty = false;
    uint64_t last_use = 0;   // For LRU/MRU bookkeeping.
  };

  // Picks the victim slot index given the slot table.
  using VictimPicker = std::function<size_t(std::span<const Slot>)>;

  // Allocates `slots` cache frames inside `proc`'s environment.
  static Result<std::unique_ptr<BlockCache>> Create(Process& proc,
                                                    const aegis::Aegis::DiskExtentGrant& extent,
                                                    size_t slots);

  void set_policy(Policy policy) { policy_ = policy; }
  void set_victim_picker(VictimPicker picker) {
    picker_ = std::move(picker);
    policy_ = Policy::kCustom;
  }

  // Returns the cached bytes of `block`, reading it in (and evicting a
  // victim) on a miss. The span is valid until the next GetBlock call.
  // `for_write` marks the block dirty.
  Result<std::span<uint8_t>> GetBlock(uint32_t block, bool for_write);

  // Writes every dirty block back to the extent. Every slot is attempted
  // even after a failure — one bad block must not strand the rest — and
  // the first error is returned; dirty_remaining() says what is still at
  // risk afterwards.
  Status Flush();

  // Dirty blocks not yet written back (data at risk if the cache dies).
  size_t dirty_remaining() const;

  // Revocation support. ReleaseCleanFrames is the non-blocking half of the
  // repair contract (safe from a revoke handler, which can arrive at
  // interrupt level on an arbitrary fiber): it deallocates up to `n`
  // invalid or clean slots' frames, shrinking the cache but keeping at
  // least one slot. Returns the number released.
  uint32_t ReleaseCleanFrames(uint32_t n);
  // The blocking half, run on the owner's own fiber: slots whose frames
  // were taken by the abort protocol get replacement frames (contents
  // lost — the next GetBlock re-reads) or are dropped when no frame is
  // available. Returns the number of slots affected.
  uint32_t RepairAfterRepossession(std::span<const hw::PageId> taken);
  size_t slot_count() const { return slots_.size(); }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t io_retries() const { return io_retries_; }
  uint32_t extent_blocks() const { return extent_.blocks; }

 private:
  static constexpr int kMaxIoAttempts = 8;

  BlockCache(Process& proc, const aegis::Aegis::DiskExtentGrant& extent)
      : proc_(proc), extent_(extent) {}

  static constexpr size_t kGone = ~size_t{0};
  static constexpr hw::PageId kNoFrame = ~hw::PageId{0};

  size_t PickVictim() const;
  // The slot holding `frame`, or kGone. Slot indices do not survive a
  // blocking call (a revoke handler may release slots meanwhile); frames do.
  size_t FindFrame(hw::PageId frame) const;
  // Writes the slot's block back if it is valid and dirty.
  Status WriteBack(size_t slot);
  // One block transfer, retried with exponential backoff on transient
  // media errors (kErrIo); any other failure is immediately fatal.
  Status Transfer(uint32_t block, hw::PageId frame, bool write);

  Process& proc_;
  aegis::Aegis::DiskExtentGrant extent_;
  std::vector<Slot> slots_;
  std::vector<hw::PageId> frames_;
  std::vector<cap::Capability> frame_caps_;
  // The frame a write-back or read is using while it blocks; the revoke
  // handler's ReleaseCleanFrames leaves it alone.
  hw::PageId busy_frame_ = kNoFrame;
  Policy policy_ = Policy::kLru;
  VictimPicker picker_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t io_retries_ = 0;
};

// A victim picker for scan-heavy workloads: metadata blocks (block id
// below `metadata_blocks`) are pinned while any data block is resident;
// data blocks are evicted most-recently-used first, which keeps a stable
// prefix of a looping scan resident (the Cao et al. pattern). Exactly the
// kind of policy a kernel could never guess and an application trivially
// knows.
BlockCache::VictimPicker MakeScanAwarePicker(uint32_t metadata_blocks);

// A file handle: the inode index.
using FileHandle = uint32_t;

class LibFs {
 public:
  static constexpr uint32_t kMagic = 0x1f51995;
  static constexpr uint32_t kMaxInodes = 64;
  static constexpr uint32_t kDirectBlocks = 12;
  static constexpr uint32_t kMaxFileBytes = kDirectBlocks * hw::kPageBytes;
  static constexpr uint32_t kMaxNameBytes = 27;  // NUL-terminated in 28.
  static constexpr uint32_t kDefaultJournalBlocks = 8;
  // Largest transaction: superblock + directory + inode table.
  static constexpr uint32_t kMaxTxnBlocks = 3;

  struct Options {
    size_t cache_slots = 8;
    // Journal region size in blocks; 0 disables journaling entirely (the
    // pre-journal write-back LibFS, kept as the ablation baseline). Must
    // leave room for at least one transaction (kMaxTxnBlocks + 2).
    uint32_t journal_blocks = kDefaultJournalBlocks;
  };

  // Formats a fresh file system on `extent` and returns it, with a cache
  // of `cache_slots` blocks.
  static Result<std::unique_ptr<LibFs>> Format(Process& proc,
                                               const aegis::Aegis::DiskExtentGrant& extent,
                                               size_t cache_slots);
  static Result<std::unique_ptr<LibFs>> Format(Process& proc,
                                               const aegis::Aegis::DiskExtentGrant& extent,
                                               const Options& options);
  // Mounts an existing file system: validates the superblock, then replays
  // every committed journal transaction and discards torn/uncommitted
  // tails by checksum (journal geometry comes from the superblock).
  static Result<std::unique_ptr<LibFs>> Mount(Process& proc,
                                              const aegis::Aegis::DiskExtentGrant& extent,
                                              size_t cache_slots);

  Result<FileHandle> Create(std::string_view name);
  Result<FileHandle> Open(std::string_view name);
  Result<uint32_t> FileSize(FileHandle file);

  // Positional read/write. Reads return the byte count actually read
  // (short at EOF); writes extend the file up to kMaxFileBytes.
  Result<uint32_t> Read(FileHandle file, uint32_t offset, std::span<uint8_t> out);
  Status Write(FileHandle file, uint32_t offset, std::span<const uint8_t> data);

  // Durability point: flushes the cache, issues a disk barrier, and (when
  // journaling) checkpoints — every committed transaction is now home and
  // durable, so the journal head rewinds to the start of the region.
  Status Sync();

  // Structural self-check: superblock sanity, allocator bounds, inode
  // sizes vs. direct blocks, no doubly-used data blocks, directory entries
  // referencing exactly the used inodes. Returns kErrBadState (and sets
  // fsck_error()) on the first violation.
  Status Fsck();
  const std::string& fsck_error() const { return fsck_error_; }

  // Repairs after an abort-protocol repossession: marks the journal's raw
  // DMA frame for lazy re-allocation if it was taken, and forwards to the
  // cache. Returns the number of frames/slots affected.
  uint32_t RepairAfterRepossession(std::span<const hw::PageId> taken);

  BlockCache& cache() { return *cache_; }

  bool journaled() const { return journal_blocks_ > 0; }
  uint32_t data_start() const { return data_start_; }
  uint64_t txns_committed() const { return txns_committed_; }
  uint64_t txns_replayed() const { return txns_replayed_; }
  uint64_t journal_block_writes() const { return journal_block_writes_; }
  uint64_t barriers_issued() const { return barriers_issued_; }
  uint64_t checkpoints() const { return checkpoints_; }

 private:
  LibFs(Process& proc, const aegis::Aegis::DiskExtentGrant& extent,
        std::unique_ptr<BlockCache> cache)
      : proc_(proc), extent_(extent), cache_(std::move(cache)) {}

  struct Inode {
    uint32_t used = 0;
    uint32_t size = 0;
    uint32_t direct[kDirectBlocks] = {};
  };

  // One staged metadata block: the image CommitTxn will journal and then
  // let into the cache. Staging keeps the write-ahead rule honest — the
  // cache (whose evictions write home locations) never sees uncommitted
  // metadata.
  struct TxnBlock {
    uint32_t block = 0;
    std::array<uint8_t, hw::kPageBytes> bytes;
  };

  Result<Inode> LoadInode(FileHandle file);

  // --- Journal machinery ---
  // Stages `block` for the current transaction (copying its present
  // contents); returns the mutable image. Idempotent per block.
  Result<std::span<uint8_t>> TxnStage(uint32_t block);
  // Journals the staged images (descriptor + payloads + commit + barrier),
  // then applies them to the cache. With journaling off, just applies.
  Status CommitTxn();
  void AbortTxn() { txn_blocks_ = 0; }
  std::span<TxnBlock> Staged() { return std::span(txn_).first(txn_blocks_); }
  // Flush + barrier + journal-head rewind (all committed txns are home).
  Status Checkpoint();
  // Journal replay at mount: applies committed transactions in txn-id
  // order, stops at the first invalid/torn/uncommitted record.
  Status ReplayJournal();
  Status Barrier();
  // Raw block I/O through the dedicated journal frame, bypassing the
  // cache (journal blocks must never alias cache slots). Retries
  // transient kErrIo like BlockCache::Transfer.
  Status RawWrite(uint32_t block, std::span<const uint8_t> bytes);
  Status RawRead(uint32_t block, std::span<uint8_t> out);
  Status AllocRawFrame();

  static constexpr uint32_t kSuperBlock = 0;
  static constexpr uint32_t kDirBlock = 1;
  static constexpr uint32_t kInodeBlock = 2;
  static constexpr uint32_t kJournalStart = 3;

  Process& proc_;
  aegis::Aegis::DiskExtentGrant extent_;
  std::unique_ptr<BlockCache> cache_;

  uint32_t journal_blocks_ = 0;
  uint32_t data_start_ = kJournalStart;
  uint32_t journal_head_ = 0;  // Next free block, relative to kJournalStart.
  uint32_t next_txn_id_ = 1;
  // Staging buffers, reused by every transaction: the open one's images
  // are the first txn_blocks_, and staging never moves an earlier one.
  std::array<TxnBlock, kMaxTxnBlocks> txn_;
  uint32_t txn_blocks_ = 0;
  std::vector<uint8_t> scratch_;       // One-block build buffer.
  hw::PageId raw_frame_ = 0;           // Journal DMA frame (cache-bypassing).
  bool raw_frame_ok_ = false;

  uint64_t txns_committed_ = 0;
  uint64_t txns_replayed_ = 0;
  uint64_t journal_block_writes_ = 0;
  uint64_t barriers_issued_ = 0;
  uint64_t checkpoints_ = 0;
  std::string fsck_error_;
};

}  // namespace xok::exos

#endif  // XOK_SRC_EXOS_FS_H_
