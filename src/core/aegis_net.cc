#include "src/core/aegis.h"

#include <algorithm>

#include "src/net/pktring.h"

namespace xok::aegis {

using cap::Capability;
using hw::Instr;

// --- Network (paper §3.2) ---

Result<dpf::FilterId> Aegis::SysBindFilter(FilterBindSpec spec, const Capability& region_cap) {
  SyscallScope scope(*this, xtrace::Sys::kBindFilter);
  machine_.Charge(kSyscallEntry + kCapCheck + Instr(50));  // Filter compile/merge.
  Env& env = CurrentEnv();
  if (nic_ == nullptr) {
    machine_.Charge(kSyscallExit);
    return Status::kErrUnsupported;
  }
  if (spec.handler.has_value() && spec.region_pages == 0) {
    machine_.Charge(kSyscallExit);
    return Status::kErrInvalidArgs;  // An ASH needs a pinned region.
  }
  const Region region{spec.region_first_page, spec.region_pages};
  if (region.pages > 0 && !ProvesRegion(env.id, region, region_cap)) {
    machine_.Charge(kSyscallExit);
    return Status::kErrAccessDenied;
  }
  Result<dpf::FilterId> id = classifier_.Insert(spec.filter);
  if (!id.ok()) {
    machine_.Charge(kSyscallExit);
    return id.status();
  }
  if (*id >= bindings_.size()) {
    bindings_.resize(*id + 1);
  }
  FilterBinding& binding = bindings_[*id];
  binding.owner = env.id;
  binding.handler = std::move(spec.handler);
  binding.region = region;
  binding.trace_tag_off = spec.trace_tag_off;
  binding.queue.clear();
  binding.ring = RingState{};
  binding.stats = PacketStats{};
  binding.live = true;
  machine_.Charge(kSyscallExit);
  return *id;
}

Status Aegis::SysUnbindFilter(dpf::FilterId id) {
  SyscallScope scope(*this, xtrace::Sys::kUnbindFilter);
  machine_.Charge(kSyscallEntry + Instr(10) + kSyscallExit);
  if (id >= bindings_.size() || !bindings_[id].live) {
    return Status::kErrNotFound;
  }
  if (bindings_[id].owner != cur().current) {
    return Status::kErrAccessDenied;
  }
  return ReleaseFilter(id);  // The region pages stay with the caller.
}

Status Aegis::ReleaseFilter(dpf::FilterId id) {
  FilterBinding& binding = bindings_[id];
  binding.live = false;
  binding.queue.clear();
  binding.handler.reset();
  binding.ring = RingState{};  // Stats survive for post-mortems.
  return classifier_.Remove(id);
}

uint32_t Aegis::FiltersOf(EnvId owner) const {
  return static_cast<uint32_t>(std::count_if(
      bindings_.begin(), bindings_.end(),
      [owner](const FilterBinding& binding) { return binding.live && binding.owner == owner; }));
}

Result<std::vector<uint8_t>> Aegis::SysRecvPacket(dpf::FilterId id) {
  SyscallScope scope(*this, xtrace::Sys::kRecvPacket);
  machine_.Charge(kSyscallEntry + Instr(8));
  if (id >= bindings_.size() || !bindings_[id].live) {
    machine_.Charge(kSyscallExit);
    return Status::kErrNotFound;
  }
  FilterBinding& binding = bindings_[id];
  if (binding.owner != cur().current) {
    machine_.Charge(kSyscallExit);
    return Status::kErrAccessDenied;
  }
  if (binding.queue.empty()) {
    machine_.Charge(kSyscallExit);
    return Status::kErrWouldBlock;
  }
  std::vector<uint8_t> frame = std::move(binding.queue.front());
  binding.queue.pop_front();
  // Copy out of the kernel buffer to the application (the cost ASHs avoid).
  machine_.Charge(hw::kMemWordCopy * ((frame.size() + 3) / 4));
  machine_.Charge(kSyscallExit);
  return frame;
}

Status Aegis::SysNetSend(std::span<const uint8_t> frame) {
  SyscallScope scope(*this, xtrace::Sys::kNetSend);
  machine_.Charge(kSyscallEntry + Instr(10));
  if (nic_ == nullptr) {
    machine_.Charge(kSyscallExit);
    return Status::kErrUnsupported;
  }
  const bool ok = nic_->Transmit(frame);  // Charges the copy + controller.
  if (ok) {
    ++CurrentEnv().counters.packets_tx;
  }
  machine_.Charge(kSyscallExit);
  return ok ? Status::kOk : Status::kErrInvalidArgs;
}

// --- Zero-copy packet rings ---

net::PacketRingView Aegis::RingViewOf(const FilterBinding& binding) const {
  // Cannot fail: geometry was validated against the region at bind time
  // and is re-derived from the trusted binding record here.
  return *net::PacketRingView::Attach(RegionBytes(binding.ring.region), binding.ring.rx_slots,
                                      binding.ring.tx_slots);
}

Status Aegis::SysBindPacketRing(dpf::FilterId id, const PacketRingSpec& spec,
                                const Capability& region_cap) {
  SyscallScope scope(*this, xtrace::Sys::kBindPacketRing);
  machine_.Charge(kSyscallEntry + kCapCheck + Instr(40));  // Validate + format.
  Env& env = CurrentEnv();
  machine_.Charge(kSyscallExit);
  if (id >= bindings_.size() || !bindings_[id].live) {
    return Status::kErrNotFound;
  }
  FilterBinding& binding = bindings_[id];
  if (binding.owner != env.id) {
    return Status::kErrAccessDenied;
  }
  if (binding.handler.has_value()) {
    return Status::kErrInvalidArgs;  // ASH delivery and rings are exclusive.
  }
  if (spec.pages == 0 ||
      static_cast<size_t>(spec.pages) * hw::kPageBytes <
          net::PacketRingView::BytesNeeded(spec.rx_slots, spec.tx_slots)) {
    return Status::kErrInvalidArgs;
  }
  const Region region{spec.first_page, spec.pages};
  if (!ProvesRegion(env.id, region, region_cap)) {
    return Status::kErrAccessDenied;
  }
  Result<net::PacketRingView> view =
      net::PacketRingView::Format(RegionBytes(region), spec.rx_slots, spec.tx_slots);
  if (!view.ok()) {
    return view.status();  // Bad slot counts.
  }
  binding.ring.live = true;
  binding.ring.batch_doorbells = spec.batch_doorbells;
  binding.ring.region = region;
  binding.ring.rx_slots = spec.rx_slots;
  binding.ring.tx_slots = spec.tx_slots;
  binding.ring.shed_watermark = spec.shed_watermark;
  binding.ring.rx_head = 0;
  binding.ring.tx_tail = 0;
  // Frames already queued on the legacy path stay there; SysRecvPacket
  // still drains them.
  return Status::kOk;
}

Status Aegis::SysUnbindPacketRing(dpf::FilterId id) {
  SyscallScope scope(*this, xtrace::Sys::kUnbindPacketRing);
  machine_.Charge(kSyscallEntry + Instr(10) + kSyscallExit);
  if (id >= bindings_.size() || !bindings_[id].live) {
    return Status::kErrNotFound;
  }
  FilterBinding& binding = bindings_[id];
  if (binding.owner != cur().current) {
    return Status::kErrAccessDenied;
  }
  if (!binding.ring.live) {
    return Status::kErrNotFound;
  }
  binding.ring = RingState{};  // Delivery reverts to the legacy queue.
  return Status::kOk;
}

Result<uint32_t> Aegis::SysTxRing(dpf::FilterId id, uint32_t max_frames) {
  SyscallScope scope(*this, xtrace::Sys::kTxRing);
  machine_.Charge(kSyscallEntry + Instr(8));
  if (id >= bindings_.size() || !bindings_[id].live) {
    machine_.Charge(kSyscallExit);
    return Status::kErrNotFound;
  }
  FilterBinding& binding = bindings_[id];
  if (binding.owner != cur().current) {
    machine_.Charge(kSyscallExit);
    return Status::kErrAccessDenied;
  }
  if (!binding.ring.live || nic_ == nullptr) {
    machine_.Charge(kSyscallExit);
    return Status::kErrUnsupported;
  }
  net::PacketRingView view = RingViewOf(binding);
  // The producer cursor is untrusted: a hostile header cannot make the
  // kernel loop more than one full ring's worth per doorbell.
  uint32_t pending = view.tx_head() - binding.ring.tx_tail;
  pending = std::min(pending, binding.ring.tx_slots);
  const uint32_t count = std::min(pending, max_frames);
  uint32_t sent = 0;
  for (uint32_t i = 0; i < count; ++i) {
    machine_.Charge(kRingTxDescriptor);
    std::span<const uint8_t> frame = view.ReadTxSlot(binding.ring.tx_tail);
    ++binding.ring.tx_tail;
    if (nic_->Transmit(frame)) {  // Charges the copy + controller (+ stall).
      ++binding.stats.tx_frames;
      ++sent;
    } else {
      ++binding.stats.tx_errors;  // Malformed length: skip the slot.
    }
  }
  view.set_tx_tail(binding.ring.tx_tail);  // Publish consumer progress.
  CurrentEnv().counters.packets_tx += sent;
  machine_.Charge(kSyscallExit);
  return sent;
}

PacketStats Aegis::packet_stats(dpf::FilterId id) const {
  if (id >= bindings_.size()) {
    return PacketStats{};
  }
  const FilterBinding& binding = bindings_[id];
  PacketStats stats = binding.stats;
  stats.ring_bound = binding.ring.live;
  stats.queue_pending = static_cast<uint32_t>(binding.queue.size());
  if (binding.ring.live) {
    const uint32_t pending = binding.ring.rx_head - RingViewOf(binding).rx_tail();
    stats.rx_pending = std::min(pending, binding.ring.rx_slots);
  }
  return stats;
}

Result<PacketStats> Aegis::SysPacketStats(dpf::FilterId id) {
  SyscallScope scope(*this, xtrace::Sys::kPacketStats);
  machine_.Charge(kSyscallEntry + Instr(10) + kSyscallExit);
  if (id >= bindings_.size() || !bindings_[id].live) {
    return Status::kErrNotFound;
  }
  if (bindings_[id].owner != cur().current) {
    return Status::kErrAccessDenied;
  }
  return packet_stats(id);
}

void Aegis::HandleRxPacket() {
  while (true) {
    auto frame = nic_->ReceiveNext();
    if (!frame.has_value()) {
      return;
    }
    const uint64_t before = classifier_.sim_cycles();
    std::optional<dpf::FilterId> match = classifier_.Classify(*frame);
    machine_.Charge(classifier_.sim_cycles() - before);
    if (!match.has_value() || *match >= bindings_.size() || !bindings_[*match].live) {
      Trace(xtrace::Event::kDpfDrop, /*reason=*/0, match.value_or(0));
      continue;  // No binding claims this packet: drop it.
    }
    FilterBinding& binding = bindings_[*match];
    Env* owner = FindEnv(binding.owner);
    if (owner == nullptr || owner->state == EnvState::kExited) {
      Trace(xtrace::Event::kDpfDrop, /*reason=*/3, *match);
      continue;
    }
    // Library-programmed correlation tag (see FilterBindSpec): ride the
    // frame bytes the owner pointed us at in arg3 of this binding's
    // kDpfMatch record. Read only when a ring is armed and the binding
    // asked for it; like the record stores, charges no simulated cycles.
    uint32_t trace_tag = 0;
    if (trace_ != nullptr && binding.trace_tag_off != 0 &&
        frame->size() >= binding.trace_tag_off + 4) {
      const uint8_t* tag_at = frame->data() + binding.trace_tag_off;
      trace_tag = (static_cast<uint32_t>(tag_at[0]) << 24) |
                  (static_cast<uint32_t>(tag_at[1]) << 16) |
                  (static_cast<uint32_t>(tag_at[2]) << 8) |
                  static_cast<uint32_t>(tag_at[3]);
    }
    if (binding.handler.has_value()) {
      // ASH path: the handler runs *now*, at interrupt level, without
      // scheduling the owner. Replies leave from here (paper §6.3).
      Trace(xtrace::Event::kDpfMatch, *match, static_cast<uint32_t>(frame->size()),
            /*path=*/2, trace_tag);
      ++owner->counters.packets_rx;
      ash::AshServices services;
      services.send_reply = [this, owner](std::span<const uint8_t> reply) {
        if (nic_->Transmit(reply)) {
          ++owner->counters.packets_tx;
        }
      };
      services.wake_owner = [this, owner]() { WakeEnvInternal(*owner); };
      const ash::AshOutcome outcome =
          ash::RunAsh(*binding.handler, *frame, RegionBytes(binding.region), services);
      machine_.Charge(outcome.sim_cycles);
    } else if (binding.ring.live) {
      // Ring path: deposit straight into the owner's RX ring at interrupt
      // level — one copy off the wire, no kernel-heap buffering. The
      // consumer cursor is application memory and untrusted; free-running
      // index arithmetic makes any value safe (a corrupted tail at worst
      // drops the owner's own frames as "ring full").
      net::PacketRingView view = RingViewOf(binding);
      const uint32_t occupancy = binding.ring.rx_head - view.rx_tail();
      if (binding.ring.shed_watermark != 0 &&
          occupancy >= binding.ring.shed_watermark) {
        // Library-installed shed policy: the owner told us at bind time
        // where its queue stops being useful. Dropping here costs the
        // demux a handful of cycles, so an overloaded consumer cannot
        // make the interrupt path slow for its neighbors. Disarmed
        // (watermark 0) this branch is one compare and charges nothing.
        machine_.Charge(kRingShed);
        ++binding.stats.shed;
        ++owner->counters.packets_shed;
        Trace(xtrace::Event::kDpfDrop, /*reason=*/4, *match);
        continue;
      }
      if (occupancy >= binding.ring.rx_slots) {
        ++binding.stats.ring_drops;  // Consumer too slow: drop and count.
        ++owner->counters.packets_shed;
        Trace(xtrace::Event::kDpfDrop, /*reason=*/1, *match);
        continue;
      }
      Trace(xtrace::Event::kDpfMatch, *match, static_cast<uint32_t>(frame->size()),
            /*path=*/1, trace_tag);
      ++owner->counters.packets_rx;
      machine_.Charge(hw::kMemWordCopy * ((frame->size() + 3) / 4));
      machine_.Charge(kRingPublish);
      view.WriteRxSlot(binding.ring.rx_head, *frame);
      ++binding.ring.rx_head;
      view.set_rx_head(binding.ring.rx_head);
      ++binding.stats.delivered;
      if (occupancy + 1 > binding.stats.rx_occupancy_hwm) {
        binding.stats.rx_occupancy_hwm = occupancy + 1;  // Free bookkeeping.
      }
      if (!binding.ring.batch_doorbells || view.rx_armed()) {
        // Batched mode posts a doorbell only when the consumer armed the
        // ring before blocking, and disarming here coalesces the rest of
        // this drain: an awake consumer polls the header for free.
        view.set_rx_armed(false);
        machine_.Charge(kRxDoorbell);
        ++binding.stats.doorbells;
        WakeEnvInternal(*owner);
      }
    } else {
      // Queue in a kernel buffer and wake the owner; it pays the extra
      // copy and the scheduling delay when it finally runs. The queue is
      // capped: a slow consumer drops frames (counted) rather than growing
      // kernel memory without bound.
      if (binding.queue.size() >= FilterBinding::kMaxQueuedPackets) {
        ++binding.stats.queue_drops;
        Trace(xtrace::Event::kDpfDrop, /*reason=*/2, *match);
        continue;
      }
      Trace(xtrace::Event::kDpfMatch, *match, static_cast<uint32_t>(frame->size()),
            /*path=*/0, trace_tag);
      ++owner->counters.packets_rx;
      machine_.Charge(hw::kMemWordCopy * ((frame->size() + 3) / 4));
      binding.queue.push_back(std::move(*frame));
      ++binding.stats.queued;
      machine_.Charge(kRxDoorbell);
      ++binding.stats.doorbells;
      WakeEnvInternal(*owner);
    }
  }
}

}  // namespace xok::aegis
