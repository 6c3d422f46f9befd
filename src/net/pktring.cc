#include "src/net/pktring.h"

namespace xok::net {

PacketRingView::PacketRingView(std::span<uint8_t> region, uint32_t rx_slots, uint32_t tx_slots)
    : rx_(region.data(), region.data() + 2 * kHeaderBytes, rx_slots, kSlotStride),
      tx_(region.data() + kHeaderBytes,
          region.data() + 2 * kHeaderBytes + static_cast<size_t>(rx_slots) * kSlotStride,
          tx_slots, kSlotStride) {}

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
  if (view.ok()) {
    view->rx_.Format(kMagic);
    view->tx_.Format(kMagic);
  }
  return view;
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
