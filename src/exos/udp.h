// ExOS remote communication: UDP sockets in application space (paper §6.3).
//
// The whole protocol stack is library code: header construction, Internet
// checksums, and demultiplexing policy (which packets to claim) are chosen
// by the application; Aegis contributes only the secure filter binding and
// raw frame transmission. Three receive paths exist:
//   * the ordinary path — packets queue in a kernel buffer, the process is
//     woken, and it copies the frame out when scheduled;
//   * the ring path (BindRing below) — the demux deposits matched frames
//     straight into a shared-memory RX ring the socket owns; Recv parses
//     them in place (no receive syscall, no kernel-to-user frame copy) and
//     SendTo/QueueTo build frames directly in TX-ring slots, draining a
//     whole batch with one SysTxRing doorbell. When no contiguous page run
//     can back the rings, BindRing binds the ordinary path instead;
//     callers need not know which they got: on a queue socket QueueTo
//     sends at once and FlushTx has nothing to do;
//   * the ASH path (BindEchoAsh below / exos tests) — a downloaded handler
//     vectors or answers the message at interrupt time.
#ifndef XOK_SRC_EXOS_UDP_H_
#define XOK_SRC_EXOS_UDP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/dpf/tcpip_filters.h"
#include "src/exos/frame_run.h"
#include "src/exos/process.h"
#include "src/net/pktring.h"
#include "src/net/wire.h"

namespace xok::exos {

// Static interface configuration (no ARP in 1995's experiments either:
// the paper ping-pongs between two fixed stations).
struct NetIface {
  uint64_t mac = 0;
  uint32_t ip = 0;
  // Resolver from destination IP to MAC (static table in practice).
  std::function<uint64_t(uint32_t ip)> resolve;
};

struct Datagram {
  uint32_t src_ip = 0;
  uint16_t src_port = 0;
  std::vector<uint8_t> payload;
};

// Ring-mode geometry for BindRing.
struct RingConfig {
  uint32_t rx_slots = 32;
  uint32_t tx_slots = 16;
  bool batch_doorbells = true;
  // Library shed policy handed to the kernel at bind time: RX occupancy at
  // or above this sheds frames at the demux for a few cycles each (see
  // aegis::PacketRingSpec). 0 disarms. Survives repair rebinds — the
  // policy is part of the socket's geometry.
  uint32_t shed_watermark = 0;
};

class UdpSocket {
 public:
  UdpSocket(Process& proc, NetIface iface) : proc_(proc), iface_(std::move(iface)) {}

  // Claims UDP packets to `port` via a filter binding (kernel-queue path).
  // `extra` atoms refine the claim beyond the port — e.g. the server libOS
  // appends a masked payload-byte atom so each worker's socket claims only
  // its shard of the key space (software RSS, expressed in the filter
  // language so DPF's most-specific-wins policy routes around a shallower
  // catch-all). The refined filter is re-applied by repair rebinds.
  Status Bind(uint16_t port, std::vector<dpf::Atom> extra = {});
  // Bind + zero-copy rings: allocates a contiguous run of pages, formats
  // the ring pair in them, and registers it with the kernel. Matched
  // frames then bypass the kernel queue entirely. If any step of the ring
  // fails, it is undone and the socket binds the kernel-queue path
  // (ring_bound() false); the status is then Bind's.
  Status BindRing(uint16_t port, const RingConfig& config = {},
                  std::vector<dpf::Atom> extra = {});
  Status Close();

  // Builds the frame (headers + checksums are application code, charged as
  // such) and hands it to the kernel for transmission: QueueTo, then
  // FlushTx.
  Status SendTo(uint32_t dst_ip, uint16_t dst_port, std::span<const uint8_t> payload);
  // On a ring socket, assembles the frame in a TX slot without ringing the
  // doorbell: a batch of QueueTo calls followed by one FlushTx costs one
  // kernel crossing total. A queue socket has no TX ring, so the frame
  // goes to the kernel at once.
  Status QueueTo(uint32_t dst_ip, uint16_t dst_port, std::span<const uint8_t> payload);
  // Transmits everything queued in the TX ring; returns the frame count.
  // On a queue socket: 0, and nothing is charged.
  Result<uint32_t> FlushTx();

  // Receives the next datagram. Blocking: Waits (no deadline) until one
  // arrives. Non-blocking: returns kErrWouldBlock when empty.
  Result<Datagram> Recv(bool blocking = true);

  // The socket's one wait, for a caller that just found it empty: sleeps
  // until the binding signals a frame, any other wake reaches the
  // environment, or absolute cycle `deadline` (machine clock) passes. A
  // ring socket arms its RX doorbell, re-checks the ring, and confirms the
  // binding is alive with SysPacketStats before sleeping; a queue socket
  // needs none of that, since its binding wakes the owner on every frame.
  // kOk means "woken": the caller re-polls, because the wake may have come
  // from a timer, a peer, or another socket of the same environment —
  // which is what lets one loop serve several sources. kErrTimedOut: the
  // deadline had already passed (no sleep). kErrRevoked: the ring binding
  // is gone and no frame can ever wake the caller (no sleep). kErrBadState:
  // the socket has no binding at all (no sleep).
  static constexpr uint64_t kNoDeadline = ~0ull;
  Status Wait(uint64_t deadline = kNoDeadline);
  // Wait for a loop that must let time pass on every turn: the same wait,
  // except that a socket which cannot wait — its binding revoked, or gone
  // while a repair rebind keeps failing — sleeps out the rest of `deadline`
  // on the timer alone instead of returning at once. True when the caller
  // should re-poll before the deadline (a wake); false once it has passed.
  // With kNoDeadline a socket that cannot wait returns false at once.
  bool WaitOrSleep(uint64_t deadline);

  uint16_t port() const { return port_; }
  bool ring_bound() const { return ring_.has_value(); }
  std::optional<dpf::FilterId> filter_id() const { return binding_; }

  // Programs the kDpfMatch correlation tag (FilterBindSpec::trace_tag_off):
  // the demux will copy 4 big-endian frame bytes at `frame_off` into arg3
  // of this socket's match records, which is how the request tracer joins
  // demux timestamps to app request ids. Call before Bind/BindRing; the
  // offset is part of the socket's geometry and survives repair rebinds.
  void set_trace_tag_off(uint32_t frame_off) { trace_tag_off_ = frame_off; }

  // Post-revocation repair: rebinds whatever the kernel reclaimed. A
  // reclaimed filter (SysPacketStats reports the binding gone) or a
  // severed ring (a region page repossessed) triggers a full rebind with
  // the original geometry (BindRing again, with its fallback to the
  // legacy kernel-queue path, which needs no pages at all). A socket
  // whose first BindRing already fell back rebinds the queue. Frames
  // queued at the moment of repair are dropped — UDP. `taken` is the
  // vector from SysReadRepossessed.
  Status RepairAfterRepossession(std::span<const hw::PageId> taken);
  uint64_t repairs() const { return repairs_; }
  // True while the socket runs on the legacy queue because a ring rebind
  // failed; the next successful repair clears it.
  bool legacy_fallback() const { return legacy_fallback_; }

 private:
  // Parses the ring's front frame into a datagram (drops malformed ones).
  Result<Datagram> PopRingFrame();

  Process& proc_;
  NetIface iface_;
  uint16_t port_ = 0;
  std::optional<dpf::FilterId> binding_;
  std::optional<net::PacketRingView> ring_;
  FrameRun ring_pages_;      // Contiguous run backing the rings.
  RingConfig ring_config_;   // Geometry to rebuild with after a repair.
  std::vector<dpf::Atom> extra_atoms_;  // Filter refinement beyond the port.
  uint32_t trace_tag_off_ = 0;  // kDpfMatch arg3 tag offset (0 = untagged).
  bool want_ring_ = false;   // Socket was bound in ring mode.
  uint32_t ring_pops_since_check_ = 0;  // Liveness-audit cadence (see Recv).
  uint64_t repairs_ = 0;
  bool legacy_fallback_ = false;
};

// Binds an echo-reply ASH for UDP `port`: requests arriving at `port` are
// answered entirely at interrupt level with a counter-incremented copy of
// the prebuilt reply frame (the paper's Table 11 ASH workload). Returns
// the filter id; the region is allocated inside `proc`'s environment.
struct AshEchoConfig {
  NetIface iface;
  uint16_t port = 0;
  uint32_t peer_ip = 0;
  uint16_t peer_port = 0;
};
Result<dpf::FilterId> BindEchoAsh(Process& proc, const AshEchoConfig& config);

}  // namespace xok::exos

#endif  // XOK_SRC_EXOS_UDP_H_
