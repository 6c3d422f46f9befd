// Physical memory: a flat array of 4 KB page frames. The hardware knows
// nothing about ownership — secure bindings and capabilities live in the
// exokernel (src/core); the Ultrix baseline manages frames with its own
// internal free list. Out-of-range physical accesses are bus errors.
//
// The frames are a lazily backed, guard-paged host mapping (mapping.h): a
// frame costs host memory only once something writes it, and a host-side
// overrun past the last frame faults. Every frame reads zero at power-on.
// The mapping comes from the per-thread pool and goes back to it when the
// PhysMem is destroyed, so a machine built after one of the same size
// maps nothing and takes no host page fault on a frame its predecessor
// touched. To hand it back reading zero without scanning it, PhysMem keeps
// one dirty bit per frame, set by every accessor that hands the frame out
// writable (WriteWord, the non-const PageSpan, RangeSpan), and zeroes
// exactly the dirty frames at destruction.
#ifndef XOK_SRC_HW_PHYS_MEM_H_
#define XOK_SRC_HW_PHYS_MEM_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/base/result.h"
#include "src/hw/mapping.h"
#include "src/hw/trap.h"

namespace xok::hw {

class PhysMem {
 public:
  explicit PhysMem(uint32_t page_count);

  // Zeroes the dirty frames and gives the mapping back to the pool.
  ~PhysMem();

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  uint32_t page_count() const { return page_count_; }

  bool ValidPage(PageId page) const { return page < page_count_; }
  bool ValidPaddr(Paddr pa) const { return (pa >> kPageShift) < page_count_; }

  // Word accessors. `pa` must be word-aligned and in range; callers
  // (the machine) enforce alignment and translate errors into exceptions.
  uint32_t ReadWord(Paddr pa) const {
    uint32_t word;
    std::memcpy(&word, &bytes_[pa], sizeof(word));
    return word;
  }
  void WriteWord(Paddr pa, uint32_t value) {
    MarkDirty(pa >> kPageShift);
    std::memcpy(&bytes_[pa], &value, sizeof(value));
  }

  // Raw views of a page frame, used for bulk copies (DMA, kernel buffer
  // moves). Cycle charging is the caller's job. The writable view marks
  // the frame dirty for as long as this PhysMem lives.
  std::span<uint8_t> PageSpan(PageId page) {
    std::span<uint8_t> frame = bytes_.subspan(static_cast<size_t>(page) * kPageBytes, kPageBytes);
    MarkDirty(page);
    return frame;
  }
  std::span<const uint8_t> PageSpan(PageId page) const {
    return bytes_.subspan(static_cast<size_t>(page) * kPageBytes, kPageBytes);
  }

  // A contiguous run of page frames as one span (frames are physically
  // contiguous iff their page ids are consecutive). Used for DMA regions
  // and ASH pinned regions. Marks every frame of the run dirty, a word of
  // the bitmap at a time.
  std::span<uint8_t> RangeSpan(PageId first_page, uint32_t page_count) {
    std::span<uint8_t> frames = bytes_.subspan(static_cast<size_t>(first_page) * kPageBytes,
                                               static_cast<size_t>(page_count) * kPageBytes);
    MarkDirty(first_page, page_count);
    return frames;
  }

  // Frames zeroed by PhysMems destroyed on this thread so far. Host-side
  // and charged to no simulated clock, like Fiber::switches(): it tells a
  // test how much host work recycling a machine's memory cost.
  static uint64_t frames_zeroed();

 private:
  static constexpr uint32_t kWordBits = 64;

  void MarkDirty(PageId page) { dirty_[page / kWordBits] |= uint64_t{1} << (page % kWordBits); }
  void MarkDirty(PageId first_page, uint32_t page_count) {
    if (page_count == 0) {
      return;
    }
    const PageId last_page = first_page + page_count - 1;
    const uint32_t first_word = first_page / kWordBits;
    const uint32_t last_word = last_page / kWordBits;
    const uint64_t from_first = ~uint64_t{0} << (first_page % kWordBits);
    const uint64_t to_last = ~uint64_t{0} >> (kWordBits - 1 - last_page % kWordBits);
    if (first_word == last_word) {
      dirty_[first_word] |= from_first & to_last;
      return;
    }
    dirty_[first_word] |= from_first;
    for (uint32_t word = first_word + 1; word < last_word; ++word) {
      dirty_[word] = ~uint64_t{0};
    }
    dirty_[last_word] |= to_last;
  }

  uint32_t page_count_;
  Mapping mapping_;
  std::span<uint8_t> bytes_;     // The page frames, within mapping_.
  std::vector<uint64_t> dirty_;  // Bit p: frame p was handed out writable.
};

}  // namespace xok::hw

#endif  // XOK_SRC_HW_PHYS_MEM_H_
