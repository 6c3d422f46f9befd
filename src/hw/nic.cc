#include "src/hw/nic.h"

namespace xok::hw {

Nic::Nic(Machine& machine, MacAddr mac) : machine_(machine), mac_(mac & kBroadcastMac) {}

bool Nic::Transmit(std::span<const uint8_t> frame) {
  if (frame.size() < kMinFrameBytes || frame.size() > kMaxFrameBytes) {
    return false;
  }
  if (ReadMac(frame, 0) == mac_) {
    // Internal loopback: a frame addressed to the controller's own station
    // address never reaches the wire — the controller DMA-loops it into its
    // own receive ring (LANCE loopback mode). The sender still pays the
    // buffer copy and controller setup, but not wire serialisation, so
    // same-machine client/server traffic measures software path length.
    machine_.Charge(kMemWordCopy * ((frame.size() + 3) / 4));
    machine_.Charge(kNicControllerLatency);
    ++frames_transmitted_;
    ++loopback_frames_;
    DeliverAt(machine_.clock().now() + kNicControllerLatency,
              std::vector<uint8_t>(frame.begin(), frame.end()));
    return true;
  }
  if (wire_ == nullptr) {
    return false;  // Cable unplugged.
  }
  // TX contention: the single transmitter serialises one frame at a time;
  // a sender that outruns the wire stalls until the previous frame clears.
  const uint64_t now = machine_.clock().now();
  if (tx_free_at_ > now) {
    ++tx_stalls_;
    tx_stall_cycles_ += tx_free_at_ - now;
    machine_.Charge(tx_free_at_ - now);
  }
  // Copy into the transmit buffer plus DMA/doorbell setup.
  machine_.Charge(kMemWordCopy * ((frame.size() + 3) / 4));
  machine_.Charge(kNicControllerLatency);
  wire_->Broadcast(this, frame);
  tx_free_at_ = machine_.clock().now() + frame.size() * kWireCyclesPerByte;
  ++frames_transmitted_;
  return true;
}

std::optional<std::vector<uint8_t>> Nic::ReceiveNext() {
  machine_.Charge(Instr(4));  // Ring descriptor examination.
  if (rx_ring_.empty()) {
    return std::nullopt;
  }
  std::vector<uint8_t> frame = std::move(rx_ring_.front());
  rx_ring_.pop_front();
  return frame;
}

void Nic::InjectRx(std::vector<uint8_t> frame) {
  DeliverAt(machine_.clock().now(), std::move(frame));
}

void Nic::DeliverAt(uint64_t arrival_cycle, std::vector<uint8_t> frame) {
  if (rx_ring_.size() >= kRxRingSlots) {
    ++frames_dropped_;
    return;
  }
  ++frames_received_;
  rx_ring_.push_back(std::move(frame));
  machine_.PushEvent(arrival_cycle, InterruptSource::kNicRx, 0);
}

void Wire::Attach(Nic* nic) {
  nics_.push_back(nic);
  nic->wire_ = this;
}

void Wire::Broadcast(Nic* sender, std::span<const uint8_t> frame) {
  if (fault_injector_ != nullptr && fault_injector_->NextWireDrop()) {
    return;  // The frame evaporates on the wire.
  }
  std::vector<uint8_t> bytes(frame.begin(), frame.end());
  if (fault_injector_ != nullptr) {
    fault_injector_->MaybeCorruptFrame(bytes);  // Bit rot, delivered verbatim.
  }
  const MacAddr dst = ReadMac(bytes, 0);
  const uint64_t arrival = sender->machine_.clock().now() +
                           bytes.size() * kWireCyclesPerByte + kNicControllerLatency;
  for (Nic* nic : nics_) {
    if (nic == sender) {
      continue;
    }
    if (dst == kBroadcastMac || dst == nic->mac()) {
      nic->DeliverAt(arrival, bytes);
    }
  }
}

}  // namespace xok::hw
