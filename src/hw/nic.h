// Simulated LANCE-style Ethernet controller and the shared wire.
//
// The wire is a broadcast medium: a transmitted frame is delivered to every
// other attached controller whose station address matches the frame's
// 6-byte destination (or the broadcast address). Delivery is a timed event:
// arrival = transmit time + serialisation at 10 Mb/s + fixed controller
// latency on each side. A wire frame lands in the receiving controller's
// ring at its arrival cycle, in the receiver's own time: when the kNicRx
// interrupt posted for that cycle is delivered, or when ReceiveNext looks
// at the ring at or after it, whichever comes first. Only then is the
// ring-full drop decided (and counted), as real hardware does. Frames that
// arrive on the same cycle land in the order of their senders' world
// indices, then of each sender's transmissions, so the ring's order does
// not depend on which machine the host happened to run first. Frames
// looped back to the sender's own address, and frames a bench injects with
// InjectRx, land in the ring at once.
#ifndef XOK_SRC_HW_NIC_H_
#define XOK_SRC_HW_NIC_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <utility>
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

  // Attaches to `machine`, which takes one controller.
  Nic(Machine& machine, MacAddr mac);
  ~Nic();

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

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

  // Pops the next received frame, if any, after landing every wire frame
  // whose arrival cycle the executing CPU's clock has reached: a frame
  // still on the wire is never returned. Called by the kernel from the
  // kNicRx interrupt handler. The kernel is charged for examining the ring.
  std::optional<std::vector<uint8_t>> ReceiveNext();

  // Host/bench-side injection (charges nothing): lands `frame` in the
  // receive ring at once, as if it had just arrived off the wire, posting
  // the usual kNicRx interrupt. Lets benches isolate receive-path software
  // cost from wire serialisation.
  void InjectRx(std::vector<uint8_t> frame);

  uint64_t frames_dropped() const { return frames_dropped_; }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t frames_transmitted() const { return frames_transmitted_; }
  uint64_t loopback_frames() const { return loopback_frames_; }
  uint64_t tx_stalls() const { return tx_stalls_; }
  uint64_t tx_stall_cycles() const { return tx_stall_cycles_; }

 private:
  friend class Cpu;  // Lands arrived frames as it delivers kNicRx.
  friend class Wire;
  friend class World;  // Shortens its lookahead while a frame is sending.

  // A wire frame on its way to this controller.
  struct InFlight {
    uint64_t arrival = 0;
    uint32_t origin = 0;  // Sender's world index.
    uint64_t seq = 0;     // Sender's transmission number.
    std::vector<uint8_t> frame;
  };

  // Called by the wire in the sender's execution: `frame` arrives at
  // `arrival`; posts the kNicRx interrupt for that cycle.
  void Arrive(uint64_t arrival, uint32_t origin, uint64_t seq, std::vector<uint8_t> frame);
  // Lands every in-flight frame due at or before `now`, in arrival order.
  // Inline: it runs on every kNicRx delivery and ReceiveNext, loopback
  // traffic included, and usually finds nothing in flight.
  void LandArrived(uint64_t now) {
    while (!in_flight_.empty() && in_flight_.front().arrival <= now) {
      Land(std::move(in_flight_.front().frame));
      in_flight_.pop_front();
    }
  }
  // Puts `frame` in the receive ring, or drops it if the ring is full.
  void Land(std::vector<uint8_t> frame);

  Machine& machine_;
  MacAddr mac_;
  Wire* wire_ = nullptr;
  std::deque<InFlight> in_flight_;  // By (arrival, origin, seq).
  std::deque<std::vector<uint8_t>> rx_ring_;
  uint64_t frames_dropped_ = 0;
  uint64_t frames_received_ = 0;
  uint64_t frames_transmitted_ = 0;
  uint64_t loopback_frames_ = 0;
  uint64_t tx_free_at_ = 0;  // Cycle the transmitter finishes serialising.
  // Transmits between their first charge and the wire. A sender abandoned
  // inside one (a power cut, a kill) leaves it raised, which only keeps
  // the World's shorter, still exact, lookahead for this machine.
  uint32_t sending_ = 0;
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
  // injector counts what it drops and corrupts. Each frame's draws are keyed
  // on its sender's world index and transmission number, not on the order
  // in which frames reach the wire. Pass nullptr to disarm.
  void set_fault_injector(FaultInjector* injector) { fault_injector_ = injector; }

 private:
  friend class Nic;

  // Sends the sender's transmission number `seq`.
  void Broadcast(Nic* sender, uint64_t seq, std::span<const uint8_t> frame);

  std::vector<Nic*> nics_;
  FaultInjector* fault_injector_ = nullptr;
};

}  // namespace xok::hw

#endif  // XOK_SRC_HW_NIC_H_
