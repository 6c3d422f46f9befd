// The software TLB (paper §4, §5.4, refs [7, 28]): Aegis overlays the
// 64-entry hardware TLB with a large direct-mapped software cache of
// secure bindings, absorbing capacity misses so that application-level
// virtual memory stays fast. 4096 entries of 8 bytes, per the paper.
#ifndef XOK_SRC_CORE_STLB_H_
#define XOK_SRC_CORE_STLB_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "src/hw/trap.h"

namespace xok::aegis {

class Stlb {
 public:
  static constexpr uint32_t kEntries = 4096;

  struct Entry {
    hw::Vpn vpn = 0;
    hw::Asid asid = 0;
    hw::PageId pfn = 0;
    bool writable = false;
    bool valid = false;
  };

  // Every pfn handed to this STLB must be below `frames`.
  explicit Stlb(uint32_t frames) : frame_entries_(frames, 0) {}

  const Entry* Lookup(hw::Vpn vpn, hw::Asid asid) const {
    const Entry& entry = slots_[SlotOf(vpn, asid)];
    if (entry.valid && entry.vpn == vpn && entry.asid == asid) {
      return &entry;
    }
    return nullptr;
  }

  void Insert(hw::Vpn vpn, hw::Asid asid, hw::PageId pfn, bool writable) {
    Entry& entry = slots_[SlotOf(vpn, asid)];
    Drop(entry);
    entry = Entry{vpn, asid, pfn, writable, true};
    ++frame_entries_[pfn];
    if (asid >= asid_entries_.size()) {
      asid_entries_.resize(asid + 1u, 0);
    }
    ++asid_entries_[asid];
  }

  void Invalidate(hw::Vpn vpn, hw::Asid asid) {
    Entry& entry = slots_[SlotOf(vpn, asid)];
    if (entry.vpn == vpn && entry.asid == asid) {
      Drop(entry);
    }
  }

  // The flushes sweep the slots only while the asid or frame still has
  // valid entries; one that holds none (the common case when an
  // environment exits or a frame is released) costs one load.
  void FlushAsid(hw::Asid asid) {
    for (uint32_t slot = 0; slot < kEntries && AsidEntries(asid) > 0; ++slot) {
      if (slots_[slot].asid == asid) {
        Drop(slots_[slot]);
      }
    }
  }

  void FlushPfn(hw::PageId pfn) {
    for (uint32_t slot = 0; slot < kEntries && frame_entries_[pfn] > 0; ++slot) {
      if (slots_[slot].pfn == pfn) {
        Drop(slots_[slot]);
      }
    }
  }

  void FlushAll() {
    for (Entry& entry : slots_) {
      entry.valid = false;
    }
    std::fill(frame_entries_.begin(), frame_entries_.end(), 0);
    std::fill(asid_entries_.begin(), asid_entries_.end(), 0);
  }

  // Diagnostic views for the kernel invariant auditor. frame_entries()[p]
  // counts the valid slots naming frame p, and asid_entries()[a] those
  // tagged with asid a (an asid past its end has none): host-side
  // summaries of slots() that charge nothing.
  const std::array<Entry, kEntries>& slots() const { return slots_; }
  const std::vector<uint16_t>& frame_entries() const { return frame_entries_; }
  const std::vector<uint16_t>& asid_entries() const { return asid_entries_; }

 private:
  static uint32_t SlotOf(hw::Vpn vpn, hw::Asid asid) {
    return (vpn ^ (static_cast<uint32_t>(asid) << 7)) & (kEntries - 1);
  }

  uint16_t AsidEntries(hw::Asid asid) const {
    return asid < asid_entries_.size() ? asid_entries_[asid] : 0;
  }

  void Drop(Entry& entry) {
    if (entry.valid) {
      entry.valid = false;
      --frame_entries_[entry.pfn];
      --asid_entries_[entry.asid];
    }
  }

  std::array<Entry, kEntries> slots_{};
  // Both fit: at most kEntries per frame or asid. The asid counts grow to
  // the highest asid inserted.
  std::vector<uint16_t> frame_entries_;
  std::vector<uint16_t> asid_entries_;
};

}  // namespace xok::aegis

#endif  // XOK_SRC_CORE_STLB_H_
