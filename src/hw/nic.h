// Simulated LANCE-style Ethernet controller and the shared wire.
//
// The wire is a broadcast medium: a transmitted frame is delivered to every
// other attached controller whose station address matches the frame's
// 6-byte destination (or the broadcast address). Delivery is a timed event:
// arrival = transmit time + serialisation at 10 Mb/s + fixed controller
// latency on each side. On arrival the frame lands in the controller's
// receive ring and an InterruptSource::kNicRx interrupt is posted; if the
// ring is full the frame is dropped (and counted), as real hardware does.
#ifndef XOK_SRC_HW_NIC_H_
#define XOK_SRC_HW_NIC_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "src/hw/fault.h"
#include "src/hw/machine.h"

namespace xok::hw {

using MacAddr = uint64_t;  // Low 48 bits are the station address.

inline constexpr MacAddr kBroadcastMac = 0xffffffffffffULL;

// Reads the 6-byte big-endian destination/source fields of an Ethernet frame.
constexpr MacAddr ReadMac(std::span<const uint8_t> frame, size_t offset) {
  MacAddr mac = 0;
  for (size_t i = 0; i < 6; ++i) {
    mac = (mac << 8) | frame[offset + i];
  }
  return mac;
}

class Wire;

class Nic {
 public:
  static constexpr size_t kRxRingSlots = 64;
  static constexpr size_t kMaxFrameBytes = 1518;
  static constexpr size_t kMinFrameBytes = 14;  // Header only; no pad modelled.

  Nic(Machine& machine, MacAddr mac);

  MacAddr mac() const { return mac_; }
  Machine& machine() { return machine_; }

  // Transmits a frame. Charges the sender for the copy into the transmit
  // buffer and the controller setup — and, when the transmitter is still
  // serialising the previous frame onto the 10 Mb/s wire, for the stall
  // until it frees up (TX backpressure: back-to-back sends are wire-bound,
  // not free beyond the copy). Returns false for malformed frames.
  //
  // A frame addressed to the controller's own station address is
  // internally looped back into the receive ring (LANCE loopback mode)
  // without touching the wire — no serialisation stall, and it works with
  // the cable unplugged. This is how a single simulated machine hosts
  // client and server environments talking through the full demux path.
  bool Transmit(std::span<const uint8_t> frame);

  // Pops the next received frame, if any. Called by the kernel from the
  // kNicRx interrupt handler. The kernel is charged for examining the ring.
  std::optional<std::vector<uint8_t>> ReceiveNext();

  // Host/bench-side injection (charges nothing): lands `frame` in the
  // receive ring as if it had just arrived off the wire, posting the usual
  // kNicRx interrupt. Lets benches isolate receive-path software cost from
  // wire serialisation.
  void InjectRx(std::vector<uint8_t> frame);

  uint64_t frames_dropped() const { return frames_dropped_; }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t frames_transmitted() const { return frames_transmitted_; }
  uint64_t loopback_frames() const { return loopback_frames_; }
  uint64_t tx_stalls() const { return tx_stalls_; }
  uint64_t tx_stall_cycles() const { return tx_stall_cycles_; }

 private:
  friend class Wire;

  // Called by the wire: frame arrives at `arrival_cycle`.
  void DeliverAt(uint64_t arrival_cycle, std::vector<uint8_t> frame);

  Machine& machine_;
  MacAddr mac_;
  Wire* wire_ = nullptr;
  std::deque<std::vector<uint8_t>> rx_ring_;
  uint64_t frames_dropped_ = 0;
  uint64_t frames_received_ = 0;
  uint64_t frames_transmitted_ = 0;
  uint64_t loopback_frames_ = 0;
  uint64_t tx_free_at_ = 0;  // Cycle the transmitter finishes serialising.
  uint64_t tx_stalls_ = 0;
  uint64_t tx_stall_cycles_ = 0;
};

class Wire {
 public:
  Wire() = default;

  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  void Attach(Nic* nic);

  // Fault injection (drop + byte corruption) from a shared seeded plan; the
  // injector counts what it drops and corrupts. Pass nullptr to disarm.
  void set_fault_injector(FaultInjector* injector) { fault_injector_ = injector; }

 private:
  friend class Nic;

  void Broadcast(Nic* sender, std::span<const uint8_t> frame);

  std::vector<Nic*> nics_;
  FaultInjector* fault_injector_ = nullptr;
};

}  // namespace xok::hw

#endif  // XOK_SRC_HW_NIC_H_
