#include "src/core/xtrace.h"

namespace xok::xtrace {

const char* EventName(Event e) {
  switch (e) {
    case Event::kSyscallEnter: return "syscall_enter";
    case Event::kSyscallExit: return "syscall_exit";
    case Event::kException: return "exception";
    case Event::kStlbFill: return "stlb_fill";
    case Event::kSliceSwitch: return "slice_switch";
    case Event::kYield: return "yield";
    case Event::kRevoke: return "revoke";
    case Event::kRepossess: return "repossess";
    case Event::kInterrupt: return "interrupt";
    case Event::kDpfMatch: return "dpf_match";
    case Event::kDpfDrop: return "dpf_drop";
    case Event::kDiskSubmit: return "disk_submit";
    case Event::kDiskComplete: return "disk_complete";
    case Event::kDiskBarrier: return "disk_barrier";
    case Event::kEnvBirth: return "env_birth";
    case Event::kEnvDeath: return "env_death";
    case Event::kPct: return "pct";
    case Event::kPowerCut: return "power_cut";
    case Event::kMigration: return "migration";
    case Event::kIpi: return "ipi";
    case Event::kTlbShootdown: return "tlb_shootdown";
    case Event::kPressureTick: return "pressure_tick";
    case Event::kSliceRevoke: return "slice_revoke";
    case Event::kFilterReclaim: return "filter_reclaim";
    case Event::kExtentReclaim: return "extent_reclaim";
    case Event::kAppMark: return "app_mark";
  }
  return "unknown";
}

const char* SysName(Sys n) {
  switch (n) {
    case Sys::kNull: return "null";
    case Sys::kGetCycles: return "get_cycles";
    case Sys::kSelf: return "self";
    case Sys::kCpuSlices: return "cpu_slices";
    case Sys::kYield: return "yield";
    case Sys::kBlock: return "block";
    case Sys::kSleep: return "sleep";
    case Sys::kWake: return "wake";
    case Sys::kExit: return "exit";
    case Sys::kAllocPage: return "alloc_page";
    case Sys::kDeallocPage: return "dealloc_page";
    case Sys::kTlbWrite: return "tlb_write";
    case Sys::kTlbInvalidate: return "tlb_invalidate";
    case Sys::kTlbInvalidateRange: return "tlb_invalidate_range";
    case Sys::kDeriveCap: return "derive_cap";
    case Sys::kPctCall: return "pct_call";
    case Sys::kPctSend: return "pct_send";
    case Sys::kBindFilter: return "bind_filter";
    case Sys::kUnbindFilter: return "unbind_filter";
    case Sys::kRecvPacket: return "recv_packet";
    case Sys::kNetSend: return "net_send";
    case Sys::kBindPacketRing: return "bind_packet_ring";
    case Sys::kUnbindPacketRing: return "unbind_packet_ring";
    case Sys::kTxRing: return "tx_ring";
    case Sys::kPacketStats: return "packet_stats";
    case Sys::kBindFbTile: return "bind_fb_tile";
    case Sys::kAllocDiskExtent: return "alloc_disk_extent";
    case Sys::kFreeDiskExtent: return "free_disk_extent";
    case Sys::kDiskRead: return "disk_read";
    case Sys::kDiskWrite: return "disk_write";
    case Sys::kDiskBarrier: return "disk_barrier";
    case Sys::kReadRepossessed: return "read_repossessed";
    case Sys::kEnvAlive: return "env_alive";
    case Sys::kBindTraceRing: return "bind_trace_ring";
    case Sys::kUnbindTraceRing: return "unbind_trace_ring";
    case Sys::kEnvStats: return "env_stats";
    case Sys::kSyscallHist: return "syscall_hist";
    case Sys::kCpuCount: return "cpu_count";
    case Sys::kCurrentCpu: return "current_cpu";
    case Sys::kAllocSlice: return "alloc_slice";
    case Sys::kKillEnv: return "kill_env";
    case Sys::kTraceMark: return "trace_mark";
    case Sys::kCount: break;
  }
  return "unknown";
}

uint32_t TraceRingView::SlotsFor(size_t bytes) {
  if (bytes <= kHeaderBytes) {
    return 0;
  }
  return static_cast<uint32_t>((bytes - kHeaderBytes) / kRecordBytes);
}

Result<TraceRingView> TraceRingView::Attach(std::span<uint8_t> region, uint32_t slots) {
  if (slots == 0 || region.size() < net::SharedRing::Bytes(slots, kRecordBytes)) {
    return Status::kErrInvalidArgs;
  }
  return TraceRingView(region, slots);
}

Result<TraceRingView> TraceRingView::AttachExisting(std::span<uint8_t> region) {
  if (region.size() < kHeaderBytes) {
    return Status::kErrInvalidArgs;
  }
  const TraceRingView probe(region, 1);
  if (probe.ring_.magic() != kMagic) {
    return Status::kErrBadState;
  }
  return Attach(region, probe.ring_.header_slots());
}

Result<TraceRingView> TraceRingView::Format(std::span<uint8_t> region, uint32_t slots,
                                            uint32_t mask) {
  Result<TraceRingView> view = Attach(region, slots);
  if (view.ok()) {
    view->ring_.Format(kMagic);
    view->ring_.set_word(mask);
  }
  return view;
}

}  // namespace xok::xtrace
