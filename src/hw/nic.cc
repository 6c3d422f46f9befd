#include "src/hw/nic.h"

#include <cstdio>
#include <cstdlib>
#include <tuple>
#include <utility>

namespace xok::hw {

Nic::Nic(Machine& machine, MacAddr mac) : machine_(machine), mac_(mac & kBroadcastMac) {
  if (machine_.nic_ != nullptr) {
    std::fprintf(stderr, "xok: machine %s already has a NIC\n", machine_.name());
    std::abort();
  }
  machine_.nic_ = this;
}

Nic::~Nic() { machine_.nic_ = nullptr; }

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
    Land(std::vector<uint8_t>(frame.begin(), frame.end()));
    machine_.PushEvent(machine_.clock().now() + kNicControllerLatency, InterruptSource::kNicRx,
                       0, machine_.world_index());
    return true;
  }
  if (wire_ == nullptr) {
    return false;  // Cable unplugged.
  }
  // Counted until the frame is on the wire: a CPU may yield inside the
  // charges below, and meanwhile the frame can land sooner than the World's
  // full lookahead allows.
  ++sending_;
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
  wire_->Broadcast(this, frames_transmitted_, frame);
  --sending_;
  tx_free_at_ = machine_.clock().now() + frame.size() * kWireCyclesPerByte;
  ++frames_transmitted_;
  return true;
}

std::optional<std::vector<uint8_t>> Nic::ReceiveNext() {
  machine_.Charge(Instr(4));  // Ring descriptor examination.
  LandArrived(machine_.clock().now());
  if (rx_ring_.empty()) {
    return std::nullopt;
  }
  std::vector<uint8_t> frame = std::move(rx_ring_.front());
  rx_ring_.pop_front();
  return frame;
}

void Nic::InjectRx(std::vector<uint8_t> frame) {
  Land(std::move(frame));
  machine_.PushEvent(machine_.clock().now(), InterruptSource::kNicRx, 0, machine_.world_index());
}

void Nic::Arrive(uint64_t arrival, uint32_t origin, uint64_t seq, std::vector<uint8_t> frame) {
  const auto key = [](const InFlight& f) { return std::tie(f.arrival, f.origin, f.seq); };
  InFlight flight{arrival, origin, seq, std::move(frame)};
  // Arrivals mostly come in order: search from the back.
  auto at = in_flight_.end();
  while (at != in_flight_.begin() && key(*(at - 1)) > key(flight)) {
    --at;
  }
  in_flight_.insert(at, std::move(flight));
  machine_.PushEvent(arrival, InterruptSource::kNicRx, 0, origin);
}

void Nic::Land(std::vector<uint8_t> frame) {
  if (rx_ring_.size() >= kRxRingSlots) {
    ++frames_dropped_;
    return;
  }
  ++frames_received_;
  rx_ring_.push_back(std::move(frame));
}

void Wire::Attach(Nic* nic) {
  nics_.push_back(nic);
  nic->wire_ = this;
}

void Wire::Broadcast(Nic* sender, uint64_t seq, std::span<const uint8_t> frame) {
  const uint32_t origin = sender->machine_.world_index();
  if (fault_injector_ != nullptr && fault_injector_->WireDrop(origin, seq)) {
    return;  // The frame evaporates on the wire.
  }
  std::vector<uint8_t> bytes(frame.begin(), frame.end());
  if (fault_injector_ != nullptr) {
    fault_injector_->MaybeCorruptFrame(origin, seq, bytes);  // Bit rot, delivered verbatim.
  }
  const MacAddr dst = ReadMac(bytes, 0);
  const uint64_t arrival = sender->machine_.clock().now() +
                           bytes.size() * kWireCyclesPerByte + kNicControllerLatency;
  const auto receives = [&](const Nic* nic) {
    return nic != sender && (dst == kBroadcastMac || dst == nic->mac());
  };
  // Each receiver but the last gets a copy; the last takes `bytes` itself.
  Nic* last = nullptr;
  for (Nic* nic : nics_) {
    if (receives(nic)) {
      last = nic;
    }
  }
  for (Nic* nic : nics_) {
    if (nic == last) {
      nic->Arrive(arrival, origin, seq, std::move(bytes));
      break;
    }
    if (receives(nic)) {
      nic->Arrive(arrival, origin, seq, bytes);
    }
  }
}

}  // namespace xok::hw
