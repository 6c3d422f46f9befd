#include "src/exos/udp.h"

#include <algorithm>

#include "src/ash/ash.h"

namespace xok::exos {

using hw::Instr;

namespace {
// Application-level protocol costs.
constexpr uint64_t kHeaderBuild = Instr(45);   // Ethernet+IP+UDP assembly.
constexpr uint64_t kHeaderParse = Instr(35);   // Validation + field extraction.
// Internet checksum: one add per 16-bit word.
uint64_t CksumCost(size_t bytes) { return Instr((bytes + 1) / 2); }
}  // namespace

Status UdpSocket::Bind(uint16_t port, std::vector<dpf::Atom> extra) {
  if (binding_.has_value()) {
    return Status::kErrBadState;
  }
  if (!extra.empty()) {
    extra_atoms_ = std::move(extra);  // Remembered for repair rebinds.
  }
  aegis::FilterBindSpec spec;
  spec.filter = dpf::UdpPortFilter(port);
  spec.filter.atoms.insert(spec.filter.atoms.end(), extra_atoms_.begin(),
                           extra_atoms_.end());
  spec.trace_tag_off = trace_tag_off_;
  Result<dpf::FilterId> id = proc_.kernel().SysBindFilter(std::move(spec), cap::Capability{});
  if (!id.ok()) {
    return id.status();
  }
  binding_ = *id;
  port_ = port;
  return Status::kOk;
}

Status UdpSocket::BindRing(uint16_t port, const RingConfig& config,
                           std::vector<dpf::Atom> extra) {
  if (binding_.has_value()) {
    return Status::kErrBadState;
  }
  if (!extra.empty()) {
    extra_atoms_ = std::move(extra);
  }
  aegis::Aegis& kernel = proc_.kernel();
  const size_t bytes = net::PacketRingView::BytesNeeded(config.rx_slots, config.tx_slots);
  const uint32_t pages = static_cast<uint32_t>((bytes + hw::kPageBytes - 1) / hw::kPageBytes);
  // Hunt for a contiguous run of free frames. Physical names are exposed
  // to applications precisely so they can make placement decisions like
  // this (paper §3.1); the kernel only checks ownership at bind time.
  const uint32_t page_count = proc_.machine().mem().page_count();
  for (hw::PageId start = 0; start + pages <= page_count && ring_pages_.empty();) {
    std::vector<aegis::PageGrant> run;
    hw::PageId next_start = start + pages;
    for (uint32_t i = 0; i < pages; ++i) {
      Result<aegis::PageGrant> grant = kernel.SysAllocPage(start + i);
      if (!grant.ok()) {
        next_start = start + i + 1;
        break;
      }
      run.push_back(*grant);
    }
    if (run.size() == pages) {
      ring_pages_ = std::move(run);
      break;
    }
    for (const aegis::PageGrant& grant : run) {
      (void)kernel.SysDeallocPage(grant.page, grant.cap);
    }
    start = next_start;
  }
  if (ring_pages_.empty()) {
    return Status::kErrNoResources;
  }
  auto release_pages = [this, &kernel]() {
    for (const aegis::PageGrant& grant : ring_pages_) {
      (void)kernel.SysDeallocPage(grant.page, grant.cap);
    }
    ring_pages_.clear();
  };
  const Status bound = Bind(port);
  if (bound != Status::kOk) {
    release_pages();
    return bound;
  }
  aegis::PacketRingSpec spec;
  spec.first_page = ring_pages_.front().page;
  spec.pages = pages;
  spec.rx_slots = config.rx_slots;
  spec.tx_slots = config.tx_slots;
  spec.batch_doorbells = config.batch_doorbells;
  spec.shed_watermark = config.shed_watermark;
  const Status ring = kernel.SysBindPacketRing(*binding_, spec, ring_pages_.front().cap);
  if (ring != Status::kOk) {
    (void)kernel.SysUnbindFilter(*binding_);
    binding_.reset();
    release_pages();
    return ring;
  }
  std::span<uint8_t> region = proc_.machine().mem().RangeSpan(spec.first_page, pages);
  ring_ = *net::PacketRingView::Attach(region, config.rx_slots, config.tx_slots);
  ring_config_ = config;
  want_ring_ = true;
  return Status::kOk;
}

Status UdpSocket::RepairAfterRepossession(std::span<const hw::PageId> taken) {
  if (!binding_.has_value() && port_ == 0) {
    return Status::kOk;  // Never bound (or Close()d): nothing to repair.
  }
  const uint16_t port = port_;
  if (binding_.has_value()) {
    // Is the filter binding itself gone (reclaimed under pressure)?
    Result<aegis::PacketStats> stats = proc_.kernel().SysPacketStats(*binding_);
    const bool filter_dead = !stats.ok();
    // Was the ring severed (a region page repossessed out from under it)?
    const bool ring_severed = !filter_dead && ring_.has_value() && !stats->ring_bound;
    if (!filter_dead && !ring_severed) {
      return Status::kOk;
    }
    ++repairs_;
    ring_.reset();
    // Surviving region pages still belong to us; a repossessed page's
    // capability fails dealloc harmlessly on the epoch bump, so skip it.
    for (const aegis::PageGrant& grant : ring_pages_) {
      if (std::find(taken.begin(), taken.end(), grant.page) == taken.end()) {
        (void)proc_.kernel().SysDeallocPage(grant.page, grant.cap);
      }
    }
    ring_pages_.clear();
    if (!filter_dead) {
      // Ring severed but the filter survived: unbind it so the rebind below
      // rebuilds both halves (delivery already reverted to the queue).
      (void)proc_.kernel().SysUnbindFilter(*binding_);
    }
    binding_.reset();
  }
  // Rebind. On failure, port_ keeps the old port so the NEXT poll retries:
  // a rebind can fail transiently under the very pressure storm that
  // forced the repair, and one failed attempt must not deafen the socket
  // forever.
  if (want_ring_) {
    const Status ring = BindRing(port, ring_config_, extra_atoms_);
    if (ring == Status::kOk) {
      legacy_fallback_ = false;
      return Status::kOk;
    }
  }
  // Rebind-or-fallback: the legacy queue path needs no pages.
  const Status bound = Bind(port, extra_atoms_);
  legacy_fallback_ = bound == Status::kOk && want_ring_;
  return bound;
}

Status UdpSocket::Close() {
  if (!binding_.has_value()) {
    return Status::kErrBadState;
  }
  if (ring_.has_value()) {
    (void)proc_.kernel().SysUnbindPacketRing(*binding_);
    ring_.reset();
  }
  const Status status = proc_.kernel().SysUnbindFilter(*binding_);
  binding_.reset();
  for (const aegis::PageGrant& grant : ring_pages_) {
    (void)proc_.kernel().SysDeallocPage(grant.page, grant.cap);
  }
  ring_pages_.clear();
  port_ = 0;  // A closed socket must never be "repaired" back to life.
  want_ring_ = false;
  legacy_fallback_ = false;
  return status;
}

Status UdpSocket::SendTo(uint32_t dst_ip, uint16_t dst_port, std::span<const uint8_t> payload) {
  if (ring_.has_value()) {
    const Status queued = QueueTo(dst_ip, dst_port, payload);
    if (queued != Status::kOk) {
      return queued;
    }
    Result<uint32_t> sent = FlushTx();
    return sent.ok() ? Status::kOk : sent.status();
  }
  proc_.machine().Charge(kHeaderBuild + CksumCost(payload.size() + net::kUdpHeaderBytes) +
                         CksumCost(net::kIpHeaderBytes));
  const uint64_t dst_mac = iface_.resolve ? iface_.resolve(dst_ip) : hw::kBroadcastMac;
  std::vector<uint8_t> frame =
      net::BuildUdpFrame(dst_mac, iface_.mac, iface_.ip, dst_ip, port_, dst_port, payload);
  return proc_.kernel().SysNetSend(frame);
}

Status UdpSocket::QueueTo(uint32_t dst_ip, uint16_t dst_port, std::span<const uint8_t> payload) {
  if (!ring_.has_value()) {
    return Status::kErrBadState;
  }
  const size_t bytes = net::UdpFrameBytes(payload.size());
  if (bytes > net::PacketRingView::kSlotDataBytes) {
    return Status::kErrOutOfRange;
  }
  if (ring_->TxFull()) {
    // Make room by draining what is already queued (one doorbell).
    Result<uint32_t> flushed = FlushTx();
    if (!flushed.ok()) {
      return flushed.status();
    }
    if (ring_->TxFull()) {
      return Status::kErrWouldBlock;
    }
  }
  proc_.machine().Charge(kHeaderBuild + CksumCost(payload.size() + net::kUdpHeaderBytes) +
                         CksumCost(net::kIpHeaderBytes));
  const uint64_t dst_mac = iface_.resolve ? iface_.resolve(dst_ip) : hw::kBroadcastMac;
  // Zero-copy build: the frame is assembled directly in the TX slot.
  const uint32_t head = ring_->tx_head();
  std::span<uint8_t> slot = ring_->TxSlotData(head, static_cast<uint32_t>(bytes));
  net::BuildUdpFrameInto(slot, dst_mac, iface_.mac, iface_.ip, dst_ip, port_, dst_port, payload);
  ring_->set_tx_head(head + 1);
  return Status::kOk;
}

Result<uint32_t> UdpSocket::FlushTx() {
  if (!ring_.has_value() || !binding_.has_value()) {
    return Status::kErrBadState;
  }
  return proc_.kernel().SysTxRing(*binding_);
}

Result<Datagram> UdpSocket::PopRingFrame() {
  proc_.machine().Charge(kHeaderParse);
  net::UdpView view;
  const bool valid = net::ParseUdpFrame(ring_->RxFront(), &view);
  Datagram dgram;
  if (valid) {
    // Only the payload leaves the ring; the headers are parsed in place.
    proc_.machine().Charge(hw::kMemWordCopy * ((view.payload.size() + 3) / 4));
    dgram.src_ip = view.src_ip;
    dgram.src_port = view.src_port;
    dgram.payload.assign(view.payload.begin(), view.payload.end());
  }
  ring_->RxPop();
  if (!valid) {
    return Status::kErrInvalidArgs;  // Malformed; the library's policy is to drop.
  }
  return dgram;
}

Result<Datagram> UdpSocket::Recv(bool blocking) {
  if (!binding_.has_value()) {
    return Status::kErrBadState;
  }
  for (;;) {
    if (ring_.has_value()) {
      if (!ring_->RxEmpty()) {
        // The ring header lives in shared (and revocable) memory: if the
        // kernel repossessed a ring page and its next owner scribbled the
        // head word, RxEmpty() stays false forever and every "frame" is a
        // stale slot replayed from a page that is no longer ours. Bound
        // that trust: after a full ring's worth of pops without ever
        // observing emptiness, audit the binding and surface revocation.
        if (++ring_pops_since_check_ > ring_config_.rx_slots) {
          ring_pops_since_check_ = 0;
          Result<aegis::PacketStats> audit = proc_.kernel().SysPacketStats(*binding_);
          if (!audit.ok() || !audit->ring_bound) {
            return Status::kErrRevoked;
          }
        }
        Result<Datagram> dgram = PopRingFrame();
        if (dgram.ok()) {
          return dgram;
        }
        continue;  // Malformed frame dropped; try the next slot.
      }
      ring_pops_since_check_ = 0;  // Emptiness observed: header in sync.
    } else {
      Result<std::vector<uint8_t>> frame = proc_.kernel().SysRecvPacket(*binding_);
      if (frame.ok()) {
        proc_.machine().Charge(kHeaderParse);
        net::UdpView view;
        if (!net::ParseUdpFrame(*frame, &view)) {
          continue;  // Malformed; the library's policy is to drop.
        }
        Datagram dgram;
        dgram.src_ip = view.src_ip;
        dgram.src_port = view.src_port;
        dgram.payload.assign(view.payload.begin(), view.payload.end());
        return dgram;
      }
      if (frame.status() != Status::kErrWouldBlock) {
        return frame.status();
      }
    }
    if (!blocking) {
      return Status::kErrWouldBlock;
    }
    const Status waited = Wait();
    if (waited != Status::kOk) {
      return waited;
    }
  }
}

Status UdpSocket::Wait(uint64_t deadline) {
  if (!binding_.has_value()) {
    return Status::kErrBadState;
  }
  if (proc_.machine().clock().now() >= deadline) {
    return Status::kErrTimedOut;
  }
  if (ring_.has_value()) {
    // Arm the doorbell, then re-check before sleeping: a frame deposited
    // between the caller's emptiness check and the arming would otherwise
    // wait for the next arrival. The kernel's wake-pending latch covers
    // the remaining arm-to-block window.
    ring_->set_rx_armed(true);
    if (!ring_->RxEmpty()) {
      ring_->set_rx_armed(false);
      return Status::kOk;
    }
    // Verify the binding is alive before committing to sleep: a filter
    // reclaimed while this env was busy elsewhere (or while blocked —
    // the kernel wakes reclaim victims, which lands the caller back here)
    // would otherwise leave it asleep on a ring no frame can ever reach
    // again. Surface kErrRevoked so the caller's revocation handler can
    // rebind instead.
    Result<aegis::PacketStats> stats = proc_.kernel().SysPacketStats(*binding_);
    if (!stats.ok() || !stats->ring_bound) {
      ring_->set_rx_armed(false);
      return Status::kErrRevoked;
    }
  }
  // The queue path needs no arming: the binding wakes its owner on every
  // queued frame, and the wake-pending latch catches one that raced the
  // caller's failed SysRecvPacket.
  if (deadline == kNoDeadline) {
    proc_.kernel().SysBlock();
  } else {
    const uint64_t now = proc_.machine().clock().now();
    proc_.kernel().SysSleep(deadline > now ? deadline - now : 0);
  }
  if (ring_.has_value()) {
    // Awake again: the caller polls the header for free, so a doorbell
    // would only latch a wake its next Wait returns from at once.
    ring_->set_rx_armed(false);
  }
  return Status::kOk;
}

bool UdpSocket::WaitOrSleep(uint64_t deadline) {
  const Status waited = Wait(deadline);
  if (waited == Status::kOk) {
    return true;
  }
  if (waited == Status::kErrTimedOut || deadline == kNoDeadline) {
    return false;
  }
  // No frame can reach a socket without a live binding: the rest of the
  // wait is plain elapsed time. A wake may still end it early.
  const uint64_t now = proc_.machine().clock().now();
  if (now < deadline) {
    proc_.kernel().SysSleep(deadline - now);
  }
  return proc_.machine().clock().now() < deadline;
}

Result<dpf::FilterId> BindEchoAsh(Process& proc, const AshEchoConfig& config) {
  // Pin a one-page region and prebuild the reply frame in it. The payload
  // is the 4-byte counter; the ASH patches it before each send.
  Result<aegis::PageGrant> region = proc.kernel().SysAllocPage();
  if (!region.ok()) {
    return region.status();
  }
  const std::vector<uint8_t> counter(4, 0);
  const uint64_t peer_mac =
      config.iface.resolve ? config.iface.resolve(config.peer_ip) : hw::kBroadcastMac;
  std::vector<uint8_t> reply = net::BuildUdpFrame(peer_mac, config.iface.mac, config.iface.ip,
                                                  config.peer_ip, config.port, config.peer_port,
                                                  counter);
  constexpr uint32_t kReplyOff = 64;  // Region offset of the template.
  auto region_bytes = proc.machine().mem().PageSpan(region->page);
  std::copy(reply.begin(), reply.end(), region_bytes.begin() + kReplyOff);

  Result<ash::AshProgram> handler = ash::BuildEchoAsh(ash::EchoAshSpec{
      .counter_off = net::kUdpPayloadOff,
      .reply_off = kReplyOff,
      .reply_len = static_cast<uint32_t>(reply.size()),
      .reply_counter_off = net::kUdpPayloadOff,
      .count_off = 0,
  });
  if (!handler.ok()) {
    return handler.status();
  }

  aegis::FilterBindSpec spec;
  spec.filter = dpf::UdpPortFilter(config.port);
  spec.handler = std::move(*handler);
  spec.region_first_page = region->page;
  spec.region_pages = 1;
  return proc.kernel().SysBindFilter(std::move(spec), region->cap);
}

}  // namespace xok::exos
