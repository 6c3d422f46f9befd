// Zero-copy packet rings (paper §3.2 taken to its modern conclusion; cf.
// Beadle et al., "Safe Sharing of Fast Kernel-Bypass I/O", and XOS).
//
// A packet ring is a pair of fixed-slot descriptor rings — RX and TX —
// living in *application-owned* pinned physical pages, registered with the
// kernel per packet-filter binding (Aegis::SysBindPacketRing). The DPF
// demux deposits matched frames directly into the owner's RX slots at
// interrupt level (one copy off the wire, no kernel-heap buffering); the
// application consumes them from its own memory without a receive syscall.
// The TX ring runs the other way: the application queues frames and one
// SysTxRing doorbell drains the whole batch.
//
// Layout of the shared region (all little-endian u32 fields, accessed
// through memcpy so the region is just bytes):
//
//   [RX header | TX header | rx_slots * slot | tx_slots * slot]
//
// Each header is 64 bytes: {magic, slots, head, tail, armed, ...pad}.
// Each slot is a 1536-byte stride: {len u32, reserved u32, data[1528]}.
// Indices are free-running u32 counters (slot = index % slots); the ring
// is empty when head == tail and full when head - tail == slots.
//
// Trust model: the region is application memory — the application may
// scribble anything into it at any time. The kernel therefore (a) keeps
// its own producer/consumer cursors in the trusted binding record and only
// *publishes* them to the shared header, (b) derives every byte offset
// from slot counts recorded at bind time (never from shared memory), and
// (c) clamps slot lengths read from shared memory to the slot capacity.
// With free-running index arithmetic every untrusted cursor value is safe:
// a corrupted header can at worst lose or scramble the owner's own frames.
//
// The `armed` word implements doorbell batching (interrupt mitigation, as
// in NAPI-style drivers): the consumer arms the ring just before blocking;
// the kernel posts a doorbell (wake + interrupt cost) only when the ring
// is armed, disarming it in the same step. While the consumer is awake and
// draining, deposits are silent.
#ifndef XOK_SRC_NET_PKTRING_H_
#define XOK_SRC_NET_PKTRING_H_

#include <cstdint>
#include <cstring>
#include <span>

#include "src/base/result.h"

namespace xok::net {

class PacketRingView {
 public:
  static constexpr uint32_t kMagic = 0x70724e47;  // "prNG"
  static constexpr uint32_t kHeaderBytes = 64;    // Per direction.
  static constexpr uint32_t kSlotStride = 1536;   // 8-byte slot header + data.
  static constexpr uint32_t kSlotDataBytes = kSlotStride - 8;
  static constexpr uint32_t kMaxSlots = 4096;     // Sanity bound per ring.

  PacketRingView() = default;

  // Region bytes needed for a ring pair with the given slot counts.
  static size_t BytesNeeded(uint32_t rx_slots, uint32_t tx_slots);

  // Interprets `region` as a ring pair. Fails if the slot counts are zero,
  // exceed kMaxSlots, or do not fit in the region.
  static Result<PacketRingView> Attach(std::span<uint8_t> region, uint32_t rx_slots,
                                       uint32_t tx_slots);

  // Attach + zero the headers (producer side of a fresh binding).
  static Result<PacketRingView> Format(std::span<uint8_t> region, uint32_t rx_slots,
                                       uint32_t tx_slots);

  uint32_t rx_slots() const { return rx_slots_; }
  uint32_t tx_slots() const { return tx_slots_; }

  // --- Shared-header cursor accessors (u32, memcpy'd) ---
  uint32_t rx_head() const { return LoadU32(kRxHeaderOff + kHeadOff); }
  uint32_t rx_tail() const { return LoadU32(kRxHeaderOff + kTailOff); }
  uint32_t tx_head() const { return LoadU32(kTxHeaderOff + kHeadOff); }
  uint32_t tx_tail() const { return LoadU32(kTxHeaderOff + kTailOff); }
  void set_rx_head(uint32_t v) { StoreU32(kRxHeaderOff + kHeadOff, v); }
  void set_rx_tail(uint32_t v) { StoreU32(kRxHeaderOff + kTailOff, v); }
  void set_tx_head(uint32_t v) { StoreU32(kTxHeaderOff + kHeadOff, v); }
  void set_tx_tail(uint32_t v) { StoreU32(kTxHeaderOff + kTailOff, v); }

  // Doorbell arming (consumer writes, kernel reads + clears).
  bool rx_armed() const { return LoadU32(kRxHeaderOff + kArmedOff) != 0; }
  void set_rx_armed(bool armed) { StoreU32(kRxHeaderOff + kArmedOff, armed ? 1 : 0); }

  // --- Raw slot access (index is free-running; reduced modulo slots) ---
  // Writes frame bytes + length into the slot. Caller checks occupancy.
  void WriteRxSlot(uint32_t index, std::span<const uint8_t> frame);
  void WriteTxSlot(uint32_t index, std::span<const uint8_t> frame);
  // Returns the slot's payload, length clamped to kSlotDataBytes.
  std::span<const uint8_t> ReadRxSlot(uint32_t index) const;
  std::span<const uint8_t> ReadTxSlot(uint32_t index) const;
  // Zero-copy build: the caller writes `len` bytes into the returned span
  // before publishing the slot (the length is recorded here).
  std::span<uint8_t> TxSlotData(uint32_t index, uint32_t len);

  // --- Application-side conveniences (trust the shared cursors) ---
  bool RxEmpty() const { return rx_head() == rx_tail(); }
  uint32_t RxPending() const { return rx_head() - rx_tail(); }
  // Oldest undelivered frame; empty span if the ring is empty.
  std::span<const uint8_t> RxFront() const;
  void RxPop() { set_rx_tail(rx_tail() + 1); }

  bool TxFull() const { return tx_head() - tx_tail() >= tx_slots_; }
  uint32_t TxPending() const { return tx_head() - tx_tail(); }
  // Queues a frame; false when full or oversized. No doorbell — the
  // producer batches and rings SysTxRing when it chooses.
  bool TxPush(std::span<const uint8_t> frame);

 private:
  // Header field byte offsets (within a direction's 64-byte header).
  static constexpr uint32_t kMagicOff = 0;
  static constexpr uint32_t kSlotsOff = 4;
  static constexpr uint32_t kHeadOff = 8;
  static constexpr uint32_t kTailOff = 12;
  static constexpr uint32_t kArmedOff = 16;
  static constexpr uint32_t kRxHeaderOff = 0;
  static constexpr uint32_t kTxHeaderOff = kHeaderBytes;

  PacketRingView(std::span<uint8_t> region, uint32_t rx_slots, uint32_t tx_slots)
      : base_(region.data()), rx_slots_(rx_slots), tx_slots_(tx_slots) {}

  uint32_t LoadU32(size_t off) const {
    uint32_t v;
    std::memcpy(&v, base_ + off, sizeof(v));
    return v;
  }
  void StoreU32(size_t off, uint32_t v) { std::memcpy(base_ + off, &v, sizeof(v)); }
  size_t RxSlotOff(uint32_t index) const {
    return 2 * kHeaderBytes + static_cast<size_t>(index % rx_slots_) * kSlotStride;
  }
  size_t TxSlotOff(uint32_t index) const {
    return 2 * kHeaderBytes + (static_cast<size_t>(rx_slots_) +
                               index % tx_slots_) * kSlotStride;
  }

  uint8_t* base_ = nullptr;
  uint32_t rx_slots_ = 0;
  uint32_t tx_slots_ = 0;
};

}  // namespace xok::net

#endif  // XOK_SRC_NET_PKTRING_H_
