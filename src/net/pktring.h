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
// Layout of the shared region: two net::SharedRing rings (shm_ring.h
// states the header, the free-running index rule and the trust model once)
// whose slots follow both headers:
//
//   [RX header | TX header | rx_slots * slot | tx_slots * slot]
//
// The RX header's user word is `armed`. Each slot is a 1536-byte stride:
// {len u32, reserved u32, data[1528]}; a length read from a slot is clamped
// to the slot capacity.
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
#include "src/net/shm_ring.h"

namespace xok::net {

class PacketRingView {
 public:
  static constexpr uint32_t kMagic = 0x70724e47;  // "prNG"
  static constexpr uint32_t kHeaderBytes = SharedRing::kHeaderBytes;  // Per direction.
  static constexpr uint32_t kSlotStride = 1536;   // 8-byte slot header + data.
  static constexpr uint32_t kSlotDataBytes = kSlotStride - 8;
  static constexpr uint32_t kMaxSlots = 4096;     // Sanity bound per ring.

  PacketRingView() = default;

  // Region bytes needed for a ring pair with the given slot counts.
  static size_t BytesNeeded(uint32_t rx_slots, uint32_t tx_slots) {
    return SharedRing::Bytes(rx_slots, kSlotStride) + SharedRing::Bytes(tx_slots, kSlotStride);
  }

  // Interprets `region` as a ring pair. Fails if the slot counts are zero,
  // exceed kMaxSlots, or do not fit in the region.
  static Result<PacketRingView> Attach(std::span<uint8_t> region, uint32_t rx_slots,
                                       uint32_t tx_slots);

  // Attach + zero the headers (producer side of a fresh binding).
  static Result<PacketRingView> Format(std::span<uint8_t> region, uint32_t rx_slots,
                                       uint32_t tx_slots);

  uint32_t rx_slots() const { return rx_.slots(); }
  uint32_t tx_slots() const { return tx_.slots(); }

  // --- Shared-header cursor accessors ---
  uint32_t rx_head() const { return rx_.head(); }
  uint32_t rx_tail() const { return rx_.tail(); }
  uint32_t tx_head() const { return tx_.head(); }
  uint32_t tx_tail() const { return tx_.tail(); }
  void set_rx_head(uint32_t v) { rx_.set_head(v); }
  void set_rx_tail(uint32_t v) { rx_.set_tail(v); }
  void set_tx_head(uint32_t v) { tx_.set_head(v); }
  void set_tx_tail(uint32_t v) { tx_.set_tail(v); }

  // Doorbell arming (consumer writes, kernel reads + clears).
  bool rx_armed() const { return rx_.word() != 0; }
  void set_rx_armed(bool armed) { rx_.set_word(armed ? 1 : 0); }

  // --- Raw slot access (index is free-running; reduced modulo slots) ---
  // Writes frame bytes + length into the slot. Caller checks occupancy.
  void WriteRxSlot(uint32_t index, std::span<const uint8_t> frame) { WriteSlot(rx_, index, frame); }
  void WriteTxSlot(uint32_t index, std::span<const uint8_t> frame) { WriteSlot(tx_, index, frame); }
  // Returns the slot's payload, length clamped to kSlotDataBytes.
  std::span<const uint8_t> ReadRxSlot(uint32_t index) const { return ReadSlot(rx_, index); }
  std::span<const uint8_t> ReadTxSlot(uint32_t index) const { return ReadSlot(tx_, index); }
  // Zero-copy build: the caller writes `len` bytes into the returned span
  // before publishing the slot (the length is recorded here).
  std::span<uint8_t> TxSlotData(uint32_t index, uint32_t len) { return SlotData(tx_, index, len); }

  // --- Application-side conveniences (trust the shared cursors) ---
  bool RxEmpty() const { return rx_head() == rx_tail(); }
  uint32_t RxPending() const { return rx_head() - rx_tail(); }
  // Oldest undelivered frame; empty span if the ring is empty.
  std::span<const uint8_t> RxFront() const {
    return RxEmpty() ? std::span<const uint8_t>() : ReadRxSlot(rx_tail());
  }
  void RxPop() { set_rx_tail(rx_tail() + 1); }

  bool TxFull() const { return tx_head() - tx_tail() >= tx_slots(); }
  uint32_t TxPending() const { return tx_head() - tx_tail(); }
  // Queues a frame; false when full or oversized. No doorbell — the
  // producer batches and rings SysTxRing when it chooses.
  bool TxPush(std::span<const uint8_t> frame);

 private:
  PacketRingView(std::span<uint8_t> region, uint32_t rx_slots, uint32_t tx_slots);

  // The slot framing, shared by both directions. SlotData records the
  // clamped length and returns the data bytes; ReadSlot clamps the
  // untrusted length it reads.
  static std::span<uint8_t> SlotData(const SharedRing& ring, uint32_t index, size_t len) {
    uint8_t* slot = ring.Slot(index);
    const uint32_t framed[2] = {
        static_cast<uint32_t>(len < kSlotDataBytes ? len : kSlotDataBytes), 0};
    std::memcpy(slot, framed, sizeof(framed));
    return std::span<uint8_t>(slot + sizeof(framed), framed[0]);
  }
  static void WriteSlot(const SharedRing& ring, uint32_t index, std::span<const uint8_t> frame) {
    std::span<uint8_t> data = SlotData(ring, index, frame.size());
    std::memcpy(data.data(), frame.data(), data.size());
  }
  static std::span<const uint8_t> ReadSlot(const SharedRing& ring, uint32_t index) {
    const uint8_t* slot = ring.Slot(index);
    uint32_t len;
    std::memcpy(&len, slot, sizeof(len));
    return std::span<const uint8_t>(slot + 8, len < kSlotDataBytes ? len : kSlotDataBytes);
  }

  SharedRing rx_;
  SharedRing tx_;
};

}  // namespace xok::net

#endif  // XOK_SRC_NET_PKTRING_H_
