// A fixed-latency block device. Requests complete asynchronously: the
// machine receives an InterruptSource::kDiskDone interrupt whose payload is
// the request id; the kernel then calls Complete() to retire it. Transfers
// move whole 4 KB blocks to/from physical page frames (DMA), charged per
// word like any other bulk copy.
//
// Durability model: the controller has a volatile write buffer. A write
// request is *acknowledged* at its completion interrupt but the block sits
// in the buffer until a barrier request (SubmitBarrier) drains it to the
// platter. Reads see the buffer (read-your-writes). At a power cut
// (PowerCut) the buffer dies: each buffered block is lost whole, except
// that with FaultPlan::disk_torn_per_mille a block caught mid-DMA retains
// a prefix of its new words on the platter — the torn-write hazard a
// crash-consistent library file system must survive. TakeImage /
// RestoreImage let a test boot a fresh Machine over the surviving platter
// contents.
//
// The host holds the platter as blocks, as Aegis binds it: one owned 4 KB
// Block per block ever made durable, null for a block that reads zero. A
// write fills a buffer Block, and a barrier moves each buffered Block into
// its platter slot, so a barrier copies nothing and a never-written block
// costs the host one null pointer. Blocks come from a per-thread free list
// and go back to it when a barrier displaces a platter block, when a power
// cut or RestoreImage drops buffered or zero blocks, and when the disk is
// destroyed, so a disk's lifetime allocates little once the list is full.
// A pooled Block holds its last owner's bytes: every taker overwrites it
// whole or zeroes it.
#ifndef XOK_SRC_HW_DISK_H_
#define XOK_SRC_HW_DISK_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/hw/fault.h"
#include "src/hw/machine.h"

namespace xok::hw {

class Disk {
 public:
  struct Completion {
    uint32_t block = 0;
    bool write = false;
    bool failed = false;   // Media/controller error: the DMA never happened.
    bool barrier = false;  // Write-buffer drain, not a block transfer.
  };

  Disk(Machine& machine, uint32_t block_count)
      : machine_(machine), block_count_(block_count), platter_(block_count) {}

  // Gives every platter and buffer block back to the free list.
  ~Disk() {
    for (std::unique_ptr<Block>& block : platter_) {
      Recycle(std::move(block));
    }
    DropBuffer();
  }

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  uint32_t block_count() const { return block_count_; }

  // Starts a read of `block` into physical frame `frame`. Returns the
  // request id whose completion interrupt will carry it as payload.
  Result<uint64_t> SubmitRead(uint32_t block, PageId frame) {
    return Submit(block, frame, Kind::kRead);
  }

  // Starts a write of physical frame `frame` to `block`.
  Result<uint64_t> SubmitWrite(uint32_t block, PageId frame) {
    return Submit(block, frame, Kind::kWrite);
  }

  // Starts a write barrier: when its completion interrupt fires, every
  // previously acknowledged write is durable on the platter.
  Result<uint64_t> SubmitBarrier() { return Submit(0, 0, Kind::kBarrier); }

  // Arms fault injection: transfers whose completion draws a disk error
  // finish with Completion::failed set and no DMA, and PowerCut draws
  // torn-write prefixes. Pass nullptr to disarm.
  void set_fault_injector(FaultInjector* injector) { fault_injector_ = injector; }

  // Deterministic persistent media fault: every non-barrier transfer whose
  // completion lands in [from_cycle, until_cycle) fails. Unlike the
  // injector's per-transfer draws this defeats bounded retry loops
  // (BlockCache::kMaxIoAttempts) for the whole window, which is how tests
  // force a library file system into its degraded path — and then watch it
  // recover when the window closes. until_cycle = 0 disarms.
  void SetErrorWindow(uint64_t from_cycle, uint64_t until_cycle) {
    error_from_ = from_cycle;
    error_until_ = until_cycle;
  }
  bool InErrorWindow() const {
    const uint64_t now = machine_.clock().now();
    return error_until_ != 0 && now >= error_from_ && now < error_until_;
  }

  // Retires a completed request (called from the kDiskDone handler).
  Result<Completion> Complete(uint64_t request_id) {
    auto it = inflight_.find(request_id);
    if (it == inflight_.end()) {
      return Status::kErrNotFound;
    }
    Request req = it->second;
    inflight_.erase(it);
    if (req.kind == Kind::kBarrier) {
      for (auto& [block, bytes] : buffer_) {
        platter_[block].swap(bytes);  // DropBuffer recycles the displaced block.
        ++blocks_made_durable_;
      }
      DropBuffer();
      ++barriers_completed_;
      return Completion{0, true, /*failed=*/false, /*barrier=*/true};
    }
    if (InErrorWindow()) {
      return Completion{req.block, req.kind == Kind::kWrite, /*failed=*/true};
    }
    if (fault_injector_ != nullptr && fault_injector_->NextDiskError(machine_.clock().now())) {
      return Completion{req.block, req.kind == Kind::kWrite, /*failed=*/true};
    }
    // The DMA happens "during" the latency window; apply it at completion.
    auto frame_span = machine_.mem().PageSpan(req.frame);
    if (req.kind == Kind::kWrite) {
      // Acknowledged into the volatile buffer; durable only after a barrier.
      std::unique_ptr<Block>& buffered = buffer_[req.block];
      if (buffered == nullptr) {
        buffered = TakeBlock();
      }
      std::copy(frame_span.begin(), frame_span.end(), buffered->begin());
    } else {
      auto buffered = buffer_.find(req.block);
      const Block* src =
          buffered != buffer_.end() ? buffered->second.get() : platter_[req.block].get();
      if (src != nullptr) {
        std::copy(src->begin(), src->end(), frame_span.begin());
      } else {
        std::fill(frame_span.begin(), frame_span.end(), uint8_t{0});
      }
    }
    return Completion{req.block, req.kind == Kind::kWrite, /*failed=*/false};
  }

  // Cancels an in-flight request: the DMA will never land. The completion
  // interrupt may still fire; Complete() then reports kErrNotFound, which
  // the kernel treats as a retired/spurious completion.
  bool Cancel(uint64_t request_id) { return inflight_.erase(request_id) > 0; }

  // Cancels every in-flight transfer whose DMA frame satisfies `pred`.
  // Used whenever the kernel releases a frame: it returns to the free
  // pool, so DMA into it must not land later (the frame may have been
  // reallocated to another environment by then).
  // Barriers have no DMA frame and are never cancelled here.
  std::vector<uint64_t> CancelIf(const std::function<bool(PageId frame)>& pred) {
    std::vector<uint64_t> cancelled;
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      if (it->second.kind != Kind::kBarrier && pred(it->second.frame)) {
        cancelled.push_back(it->first);
        it = inflight_.erase(it);
      } else {
        ++it;
      }
    }
    return cancelled;
  }

  // Power loss. In-flight requests never happen; the volatile write buffer
  // dies — each buffered block survives only if the torn-write channel
  // fires, and then only as a prefix of new words over the old block. The
  // device refuses all further requests.
  void PowerCut() {
    for (const auto& [block, bytes] : buffer_) {
      const uint32_t words =
          fault_injector_ != nullptr ? fault_injector_->NextTornWords(kPageBytes / 4) : 0;
      if (words > 0) {
        std::unique_ptr<Block>& durable = platter_[block];
        if (durable == nullptr) {
          durable = TakeBlock();
          durable->fill(0);  // The prefix lands over zeros.
        }
        std::copy(bytes->begin(), bytes->begin() + words * 4, durable->begin());
      }
    }
    DropBuffer();
    inflight_.clear();
    powered_off_ = true;
  }

  // Snapshot of the durable platter contents (the volatile buffer is
  // deliberately excluded — only barrier-ordered state survives a reboot).
  std::vector<uint8_t> TakeImage() const {
    std::vector<uint8_t> image(static_cast<size_t>(block_count_) * kPageBytes);
    for (size_t block = 0; block < platter_.size(); ++block) {
      if (platter_[block] != nullptr) {
        std::copy(platter_[block]->begin(), platter_[block]->end(),
                  image.begin() + static_cast<std::ptrdiff_t>(block * kPageBytes));
      }
    }
    return image;
  }

  // Boots this disk over a surviving platter image: every block takes the
  // image's bytes, whatever it held before.
  Status RestoreImage(const std::vector<uint8_t>& image) {
    if (image.size() != static_cast<size_t>(block_count_) * kPageBytes) {
      return Status::kErrInvalidArgs;
    }
    for (size_t block = 0; block < platter_.size(); ++block) {
      const auto from = image.begin() + static_cast<std::ptrdiff_t>(block * kPageBytes);
      if (std::all_of(from, from + kPageBytes, [](uint8_t b) { return b == 0; })) {
        Recycle(std::move(platter_[block]));  // Reads zero.
        continue;
      }
      if (platter_[block] == nullptr) {
        platter_[block] = TakeBlock();
      }
      std::copy(from, from + kPageBytes, platter_[block]->begin());
    }
    DropBuffer();
    inflight_.clear();
    powered_off_ = false;
    return Status::kOk;
  }

  size_t inflight_requests() const { return inflight_.size(); }
  size_t buffered_blocks() const { return buffer_.size(); }
  bool powered_off() const { return powered_off_; }
  uint64_t barriers_completed() const { return barriers_completed_; }
  uint64_t blocks_made_durable() const { return blocks_made_durable_; }
  // Blocks the host holds for the platter; a block that reads zero after
  // RestoreImage, or was never made durable, holds none.
  size_t platter_blocks() const {
    return static_cast<size_t>(std::count_if(platter_.begin(), platter_.end(),
                                             [](const auto& block) { return block != nullptr; }));
  }

 private:
  enum class Kind : uint8_t { kRead, kWrite, kBarrier };
  using Block = std::array<uint8_t, kPageBytes>;

  // Blocks given back on this thread, for the next block any disk here
  // fills. The cap (16 MB of blocks) keeps a test that makes many disks
  // from holding all their memory.
  static constexpr size_t kBlockPoolCap = 4096;
  static inline thread_local std::vector<std::unique_ptr<Block>> free_blocks_;

  // A block holding stale bytes: the caller overwrites or zeroes all of it.
  static std::unique_ptr<Block> TakeBlock() {
    if (free_blocks_.empty()) {
      return std::make_unique_for_overwrite<Block>();
    }
    std::unique_ptr<Block> block = std::move(free_blocks_.back());
    free_blocks_.pop_back();
    return block;
  }
  // Leaves `block` null; frees it when the list is full.
  static void Recycle(std::unique_ptr<Block>&& block) {
    if (block != nullptr && free_blocks_.size() < kBlockPoolCap) {
      free_blocks_.push_back(std::move(block));
    }
    block.reset();
  }
  void DropBuffer() {
    for (auto& [block, bytes] : buffer_) {
      Recycle(std::move(bytes));
    }
    buffer_.clear();
  }

  struct Request {
    uint32_t block = 0;
    PageId frame = 0;
    Kind kind = Kind::kRead;
  };

  Result<uint64_t> Submit(uint32_t block, PageId frame, Kind kind) {
    if (powered_off_) {
      return Status::kErrBadState;
    }
    if (kind != Kind::kBarrier &&
        (block >= block_count_ || !machine_.mem().ValidPage(frame))) {
      return Status::kErrOutOfRange;
    }
    machine_.Charge(Instr(50));  // Controller programming.
    const uint64_t id = next_id_++;
    inflight_.emplace(id, Request{block, frame, kind});
    // A barrier is a cache flush — cheaper than a seek, but it scales with
    // how much is buffered.
    const uint64_t latency =
        kind == Kind::kBarrier
            ? kDiskAccessCycles / 10 + buffer_.size() * (kDiskAccessCycles / 50)
            : kDiskAccessCycles;
    machine_.PushEvent(machine_.clock().now() + latency, InterruptSource::kDiskDone, id,
                       machine_.world_index());
    return id;
  }

  Machine& machine_;
  uint32_t block_count_;
  // Durable platter contents, one slot per block; null reads zero.
  std::vector<std::unique_ptr<Block>> platter_;
  // Volatile write buffer: acknowledged but not yet durable, keyed by block
  // (std::map so power-cut torn draws are deterministic per seed).
  std::map<uint32_t, std::unique_ptr<Block>> buffer_;
  std::unordered_map<uint64_t, Request> inflight_;
  uint64_t next_id_ = 1;
  uint64_t error_from_ = 0;   // Persistent-fault window (0,0 = disarmed).
  uint64_t error_until_ = 0;
  bool powered_off_ = false;
  uint64_t barriers_completed_ = 0;
  uint64_t blocks_made_durable_ = 0;
  FaultInjector* fault_injector_ = nullptr;
};

}  // namespace xok::hw

#endif  // XOK_SRC_HW_DISK_H_
