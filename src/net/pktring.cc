#include "src/net/pktring.h"

#include <cstring>

namespace xok::net {

size_t PacketRingView::BytesNeeded(uint32_t rx_slots, uint32_t tx_slots) {
  return 2 * kHeaderBytes +
         (static_cast<size_t>(rx_slots) + tx_slots) * kSlotStride;
}

Result<PacketRingView> PacketRingView::Attach(std::span<uint8_t> region, uint32_t rx_slots,
                                              uint32_t tx_slots) {
  if (rx_slots == 0 || tx_slots == 0 || rx_slots > kMaxSlots || tx_slots > kMaxSlots) {
    return Status::kErrInvalidArgs;
  }
  if (region.size() < BytesNeeded(rx_slots, tx_slots)) {
    return Status::kErrOutOfRange;
  }
  return PacketRingView(region, rx_slots, tx_slots);
}

Result<PacketRingView> PacketRingView::Format(std::span<uint8_t> region, uint32_t rx_slots,
                                              uint32_t tx_slots) {
  Result<PacketRingView> view = Attach(region, rx_slots, tx_slots);
  if (!view.ok()) {
    return view;
  }
  std::memset(region.data(), 0, 2 * kHeaderBytes);
  view->StoreU32(kRxHeaderOff + kMagicOff, kMagic);
  view->StoreU32(kRxHeaderOff + kSlotsOff, rx_slots);
  view->StoreU32(kTxHeaderOff + kMagicOff, kMagic);
  view->StoreU32(kTxHeaderOff + kSlotsOff, tx_slots);
  return view;
}

void PacketRingView::WriteRxSlot(uint32_t index, std::span<const uint8_t> frame) {
  const size_t off = RxSlotOff(index);
  const uint32_t len =
      static_cast<uint32_t>(frame.size() < kSlotDataBytes ? frame.size() : kSlotDataBytes);
  StoreU32(off, len);
  StoreU32(off + 4, 0);
  std::memcpy(base_ + off + 8, frame.data(), len);
}

void PacketRingView::WriteTxSlot(uint32_t index, std::span<const uint8_t> frame) {
  const size_t off = TxSlotOff(index);
  const uint32_t len =
      static_cast<uint32_t>(frame.size() < kSlotDataBytes ? frame.size() : kSlotDataBytes);
  StoreU32(off, len);
  StoreU32(off + 4, 0);
  std::memcpy(base_ + off + 8, frame.data(), len);
}

std::span<const uint8_t> PacketRingView::ReadRxSlot(uint32_t index) const {
  const size_t off = RxSlotOff(index);
  uint32_t len = LoadU32(off);
  if (len > kSlotDataBytes) {
    len = kSlotDataBytes;  // Untrusted length: clamp to the slot.
  }
  return std::span<const uint8_t>(base_ + off + 8, len);
}

std::span<const uint8_t> PacketRingView::ReadTxSlot(uint32_t index) const {
  const size_t off = TxSlotOff(index);
  uint32_t len = LoadU32(off);
  if (len > kSlotDataBytes) {
    len = kSlotDataBytes;
  }
  return std::span<const uint8_t>(base_ + off + 8, len);
}

std::span<uint8_t> PacketRingView::TxSlotData(uint32_t index, uint32_t len) {
  const size_t off = TxSlotOff(index);
  if (len > kSlotDataBytes) {
    len = kSlotDataBytes;
  }
  StoreU32(off, len);
  StoreU32(off + 4, 0);
  return std::span<uint8_t>(base_ + off + 8, len);
}

std::span<const uint8_t> PacketRingView::RxFront() const {
  if (RxEmpty()) {
    return {};
  }
  return ReadRxSlot(rx_tail());
}

bool PacketRingView::TxPush(std::span<const uint8_t> frame) {
  if (TxFull() || frame.size() > kSlotDataBytes) {
    return false;
  }
  const uint32_t head = tx_head();
  WriteTxSlot(head, frame);
  set_tx_head(head + 1);
  return true;
}

}  // namespace xok::net
