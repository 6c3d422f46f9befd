// Physical memory: a flat array of 4 KB page frames. The hardware knows
// nothing about ownership — secure bindings and capabilities live in the
// exokernel (src/core); the Ultrix baseline manages frames with its own
// internal free list. Out-of-range physical accesses are bus errors.
//
// The frames are a lazily backed, guard-paged host mapping (mapping.h):
// a frame costs host memory only once something writes it, untouched
// frames read zero, and a host-side overrun past the last frame faults.
#ifndef XOK_SRC_HW_PHYS_MEM_H_
#define XOK_SRC_HW_PHYS_MEM_H_

#include <cstdint>
#include <cstring>
#include <span>

#include "src/base/result.h"
#include "src/hw/mapping.h"
#include "src/hw/trap.h"

namespace xok::hw {

class PhysMem {
 public:
  explicit PhysMem(uint32_t page_count)
      : page_count_(page_count),
        mapping_(static_cast<size_t>(page_count) * kPageBytes),
        bytes_(mapping_.bytes().first(static_cast<size_t>(page_count) * kPageBytes)) {}

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
  void WriteWord(Paddr pa, uint32_t value) { std::memcpy(&bytes_[pa], &value, sizeof(value)); }

  // Raw views of a page frame, used for bulk copies (DMA, kernel buffer
  // moves). Cycle charging is the caller's job.
  std::span<uint8_t> PageSpan(PageId page) {
    return bytes_.subspan(static_cast<size_t>(page) * kPageBytes, kPageBytes);
  }
  std::span<const uint8_t> PageSpan(PageId page) const {
    return bytes_.subspan(static_cast<size_t>(page) * kPageBytes, kPageBytes);
  }

  // A contiguous run of page frames as one span (frames are physically
  // contiguous iff their page ids are consecutive). Used for DMA regions
  // and ASH pinned regions.
  std::span<uint8_t> RangeSpan(PageId first_page, uint32_t page_count) {
    return bytes_.subspan(static_cast<size_t>(first_page) * kPageBytes,
                          static_cast<size_t>(page_count) * kPageBytes);
  }

 private:
  uint32_t page_count_;
  Mapping mapping_;
  std::span<uint8_t> bytes_;  // The page frames, within mapping_.
};

}  // namespace xok::hw

#endif  // XOK_SRC_HW_PHYS_MEM_H_
