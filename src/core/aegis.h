// Aegis: the exokernel (the paper's primary contribution).
//
// Aegis securely multiplexes the simulated machine's resources — CPU time
// slices, physical pages, the TLB, exceptions, interrupts, the network
// interface, the frame buffer, and the disk — without implementing any
// abstraction on top of them. The three exokernel techniques:
//
//   * Secure bindings (§3): capabilities guard bind-time operations
//     (installing a TLB mapping, binding a packet filter); access-time
//     checks are pushed to hardware (TLB, framebuffer ownership tags) or
//     to cached bindings (the software TLB); downloaded code (DPF filters,
//     ASHs) extends binding checks into the kernel safely.
//   * Visible revocation (§3.4): the kernel asks a library OS to give
//     pages back, so the libOS picks the victims.
//   * Abort protocol (§3.5): if the libOS does not comply, the kernel
//     breaks the bindings by force and records them in the environment's
//     repossession vector.
//
// Threading model: Aegis::Run() starts one scheduler loop per CPU through
// hw::Machine::RunCpus, each on its own fiber ("kernel fiber"); each
// environment runs on its own fiber. All syscalls are methods called from
// environment fibers; they charge their documented path lengths to the
// simulated clock. Each CPU owns a slice vector, and on a multi-CPU
// machine revocation paths shoot down remote TLBs over IPIs.
//
// Handoff is direct. An environment whose turn ends (yield, block, slice
// expiry, exit, kill) ends the turn, picks the next environment and
// switches straight to its fiber on its own stack: one host switch, or
// none when it picks itself. The picked environment begins its turn on its
// own fiber (a fresh fiber does so before its entry). Picking and claiming
// charge nothing, which is what makes this safe on SMP, where environment
// fibers migrate between CPUs:
//
//   Invariant: once an environment's turn is released (on_cpu cleared), no
//   cycle is charged on its stack until it is claimed again. A charge may
//   run another CPU, which may then pick and resume that environment.
//
// So everything that charges between two turns stays on the CPU's kernel
// fiber, which only that CPU ever runs: a release that owes IPI nudges to
// parked CPUs (NudgeCpusFor), an empty pick (the CPU idles, with the empty
// result handed over so the slice scan does not run twice), and the end of
// the loop.
#ifndef XOK_SRC_CORE_AEGIS_H_
#define XOK_SRC_CORE_AEGIS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ash/ash.h"
#include "src/base/result.h"
#include "src/cap/capability.h"
#include "src/core/costs.h"
#include "src/core/env.h"
#include "src/core/pressure.h"
#include "src/core/stlb.h"
#include "src/core/xtrace.h"
#include "src/dpf/dpf.h"
#include "src/hw/disk.h"
#include "src/hw/fault.h"
#include "src/hw/fiber.h"
#include "src/hw/framebuffer.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"

namespace xok::net {
class PacketRingView;
}  // namespace xok::net

namespace xok::aegis {

inline constexpr hw::PageId kAnyPage = 0xffffffffu;

// Result of allocating a physical page: the *name* of the page (exokernels
// expose physical names; a libOS can request specific pages for cache
// colouring) and the capability that guards subsequent bindings.
struct PageGrant {
  hw::PageId page = 0;
  cap::Capability cap;
};

struct EnvGrant {
  EnvId env = kNoEnv;
  cap::Capability cap;
};

// Everything needed to create an environment. The entry function runs on
// the environment's fiber when it is first scheduled and must finish by
// calling SysExit().
struct EnvSpec {
  std::function<void()> entry;
  EnvHandlers handlers;
  uint32_t slices = 1;  // Time-slice vector positions to allocate at birth.
  // CPUs the environment may hold slices on. All requested birth slices
  // land on the least-loaded admitted CPU (lowest index breaks ties);
  // SysAllocSlice grows onto others later. kAnyCpuMask admits every CPU,
  // which on a single-CPU machine reproduces the old placement exactly.
  uint64_t cpu_mask = kAnyCpuMask;
};

// Options for binding a packet filter (paper §3.2): the owning
// environment, and optionally an ASH plus the physical pages (a contiguous
// run) that form the handler's pinned region.
struct FilterBindSpec {
  dpf::FilterSpec filter;
  std::optional<ash::AshProgram> handler;
  hw::PageId region_first_page = 0;  // First page of the pinned region.
  uint32_t region_pages = 0;         // 0: no region (no ASH, kernel queueing only).
  // Library-programmed correlation tag for kDpfMatch trace records: when
  // non-zero, the demux copies the 4 frame bytes at this offset (big-endian)
  // into arg3 of the binding's kDpfMatch records. The kernel does not know
  // what the bytes mean — the library that owns the wire format points the
  // kernel at its own request-id field, and the request tracer joins the
  // demux timestamp to the app-level marks on that key. Frames shorter than
  // trace_tag_off + 4 tag 0. Costs nothing when tracing is disarmed and,
  // like the record stores themselves, charges no simulated cycles armed.
  uint32_t trace_tag_off = 0;  // 0 = no tag (arg3 stays 0).
};

// Options for binding a zero-copy packet-ring pair to an existing filter
// binding: the region is a contiguous run of caller-owned pinned pages
// formatted as net::PacketRingView rings; matched frames land in the RX
// ring at interrupt level and SysTxRing drains the TX ring in one syscall.
struct PacketRingSpec {
  hw::PageId first_page = 0;
  uint32_t pages = 0;
  uint32_t rx_slots = 0;
  uint32_t tx_slots = 0;
  // Coalesce doorbells: wake the owner at most once per demux drain, and
  // only when it armed the ring (interrupt mitigation). When false, every
  // deposited frame posts a doorbell — the per-frame-interrupt baseline.
  bool batch_doorbells = true;
  // Library-installed shed policy (overload control): when non-zero and RX
  // occupancy has reached this many slots, the demux drops the frame at
  // kRingShed cost instead of depositing it. 0 disarms shedding — the
  // binding behaves exactly as before (frames flow until the ring is full).
  // Policy (the watermark) is the library's; the kernel supplies only the
  // cheap protected drop.
  uint32_t shed_watermark = 0;
};

// Counters for one filter binding (ring and legacy-queue paths).
struct PacketStats {
  uint64_t delivered = 0;    // Frames deposited in the RX ring.
  uint64_t queued = 0;       // Frames queued on the legacy path.
  uint64_t ring_drops = 0;   // Frames dropped because the RX ring was full.
  uint64_t queue_drops = 0;  // Frames dropped at the legacy queue cap.
  uint64_t shed = 0;         // Frames shed at the library-installed watermark.
  uint64_t doorbells = 0;    // Owner wakes posted by the demux.
  uint64_t tx_frames = 0;    // Frames transmitted via SysTxRing.
  uint64_t tx_errors = 0;    // Malformed TX-ring frames skipped.
  uint32_t rx_pending = 0;   // RX frames deposited but not yet consumed.
  uint32_t rx_occupancy_hwm = 0;  // Highest RX occupancy seen at deposit.
  uint32_t queue_pending = 0;  // Frames sitting in the legacy bounded queue.
  bool ring_bound = false;
};

// Options for binding the kernel event-trace ring (xtrace): a contiguous
// run of caller-owned pinned pages, plus the event-type mask the caller
// wants recorded (measurement policy is the application's — it pays for
// exactly the events it asked for). Slot count is derived from the region
// size: (pages * 4096 - 64) / 32 records.
struct TraceRingSpec {
  hw::PageId first_page = 0;
  uint32_t pages = 0;
  uint32_t mask = xtrace::kMaskAll;
};

// Per-environment resource accounting snapshot (SysEnvStats / env_stats).
struct EnvStats {
  EnvId env = kNoEnv;
  bool alive = false;
  bool killed = false;
  uint32_t pages_held = 0;
  uint64_t slices_run = 0;
  uint32_t cpu = 0;  // CPU currently running the env, else its last CPU.
  uint32_t slice_slots = 0;  // Slice-vector slots held across all CPUs.
  xtrace::EnvCounters counters;
};

class Aegis final : public hw::TrapSink {
 public:
  struct Config {
    uint64_t slice_cycles = kDefaultSliceCycles;
    uint32_t slice_count = 64;   // Length of the CPU slice vector.
    uint32_t max_envs = 62;      // Lifetime cap on CreateEnv calls (ids are never reused).
    uint64_t cap_key0 = 0xae915ULL;
    uint64_t cap_key1 = 0x50351995ULL;  // SOSP 1995.
  };

  explicit Aegis(hw::Machine& machine, const Config& config);
  explicit Aegis(hw::Machine& machine);
  ~Aegis() override;

  Aegis(const Aegis&) = delete;
  Aegis& operator=(const Aegis&) = delete;

  // Attaches the network interface (optional; required for filter binding).
  void AttachNic(hw::Nic* nic) { nic_ = nic; }
  void AttachFramebuffer(hw::Framebuffer* fb) { framebuffer_ = fb; }
  void AttachDisk(hw::Disk* disk) { disk_ = disk; }

  // Creates an environment (host-side before Run(), or from a syscall).
  Result<EnvGrant> CreateEnv(EnvSpec spec);

  // Scheduler loop; returns when every environment has exited.
  void Run();

  // --- System calls (called from environment fibers) ---

  // Null system call: enters and leaves the kernel (Table 2 workload).
  void SysNull();
  // Guaranteed-not-to-clobber-registers primitive operations (Table 3).
  uint64_t SysGetCycles();     // Read the cycle counter (executing CPU).
  EnvId SysSelf();             // Current environment id.
  uint32_t SysCpuSlices();     // Length of each per-CPU slice vector.
  uint32_t SysCpuCount();      // Processors on this machine.
  uint32_t SysCurrentCpu();    // CPU executing the caller right now.
  // Grants the caller one more slice-vector slot on `cpu` (kAnyCpu: the
  // least-loaded CPU admitted by the env's cpu_mask). This is how an
  // environment spans processors after birth.
  Status SysAllocSlice(uint32_t cpu = kAnyCpu);
  // Yields the rest of the current slice to `target` (directed yield) or
  // to the next runnable environment (kAnyEnv).
  void SysYield(EnvId target = kAnyEnv);
  // Blocks until another environment or a kernel event wakes this one.
  void SysBlock();
  // Blocks until a wake reaches this env or `cycles` elapse, whichever is
  // first: the one deadline wait libraries build event-driven loops from.
  // Any wake ends it early (a frame's doorbell, SysWake, a latched
  // wake-pending, a peer's death), so callers that need the full interval
  // re-check the clock. The alarm dies with the sleep: it can never end a
  // later SysBlock or SysSleep.
  void SysSleep(uint64_t cycles);
  // Wakes `env`; requires its environment capability.
  Status SysWake(EnvId env, const cap::Capability& env_cap);
  // Terminates the calling environment.
  [[noreturn]] void SysExit();

  // Physical memory (secure bindings, §3.1).
  Result<PageGrant> SysAllocPage(hw::PageId requested = kAnyPage);
  Status SysDeallocPage(hw::PageId page, const cap::Capability& cap);
  // Installs a TLB mapping for the *calling* environment's address space.
  // The capability must carry kRead (and kWrite if `writable`) for `page`.
  Status SysTlbWrite(hw::Vaddr va, hw::PageId page, bool writable,
                     const cap::Capability& cap);
  Status SysTlbInvalidate(hw::Vaddr va);
  // Batched invalidate: one kernel crossing for `pages` consecutive pages
  // (library OSes batch protection changes; cf. Appel-Li prot100).
  Status SysTlbInvalidateRange(hw::Vaddr va, uint32_t pages);
  // Derives a weaker capability (kernel-mediated, needs kGrant).
  Result<cap::Capability> SysDeriveCap(const cap::Capability& cap, uint32_t rights);

  // Protected control transfer (§5.2). Synchronous: runs the callee's
  // protected entry immediately, donating the current slice; returns its
  // reply. Asynchronous: enqueues for delivery when the callee next runs.
  Result<PctArgs> SysPctCall(EnvId callee, const PctArgs& args);
  Status SysPctSend(EnvId callee, const PctArgs& args);

  // Network (§3.2). Binding checks the ASH (already verified at
  // construction) and the region capability.
  Result<dpf::FilterId> SysBindFilter(FilterBindSpec spec, const cap::Capability& region_cap);
  Status SysUnbindFilter(dpf::FilterId id);
  // Pops the next queued packet for a bound filter (non-ASH delivery path).
  Result<std::vector<uint8_t>> SysRecvPacket(dpf::FilterId id);
  // Transmits a raw frame.
  Status SysNetSend(std::span<const uint8_t> frame);

  // Zero-copy packet rings. Binding is a secure-binding operation: the
  // caller must own the filter binding and every region page, and must
  // present a read/write capability for the region's first page. The
  // region is formatted (net::PacketRingView) before frames flow.
  Status SysBindPacketRing(dpf::FilterId id, const PacketRingSpec& spec,
                           const cap::Capability& region_cap);
  // Reverts the binding to the legacy kernel-queue delivery path.
  Status SysUnbindPacketRing(dpf::FilterId id);
  // TX doorbell: transmits up to `max_frames` frames queued in the TX
  // ring (one kernel crossing for the whole batch). Returns the count.
  Result<uint32_t> SysTxRing(dpf::FilterId id, uint32_t max_frames = 0xffffffffu);
  // Ring/queue/drop/doorbell counters for a binding the caller owns.
  Result<PacketStats> SysPacketStats(dpf::FilterId id);

  // Framebuffer binding: assigns a tile's ownership tag to the caller.
  Status SysBindFbTile(uint32_t tile_x, uint32_t tile_y);

  // Kernel event tracing (xtrace). Binding is a secure-binding operation:
  // the caller must own every region page and present a read/write
  // capability for the first. One ring per kernel (the trace is a global
  // hardware resource, like a logic analyser on the bus); records flow
  // until the ring is unbound or a reclaim path severs it
  // (FlushPageBindings / KillEnv, like any other binding). Drop-oldest:
  // the kernel never stalls on a slow reader, it overwrites and counts.
  Status SysBindTraceRing(const TraceRingSpec& spec, const cap::Capability& region_cap);
  Status SysUnbindTraceRing();
  // Appends an application-defined record (Event::kAppMark) to the trace
  // ring. The kernel contributes only mechanism — timestamp, sequencing,
  // attribution to the calling environment; the args carry whatever
  // protocol the emitting library defines (the server libOS uses them for
  // request enter/exit records; see src/exos/server). Succeeds as a no-op
  // when no ring is bound or the mask excludes kAppMark, so instrumented
  // libraries run unmodified without a profiler attached.
  Status SysTraceMark(uint32_t a0, uint32_t a1 = 0, uint32_t a2 = 0, uint32_t a3 = 0);
  // Raw per-environment accounting. Deliberately readable by *any*
  // environment: revocation and scheduling policy live in libraries, and
  // good policy needs global visibility of who holds what (paper §3.4).
  Result<EnvStats> SysEnvStats(EnvId env);
  // Log2 latency histogram for one syscall number (kernel-wide),
  // maintained at the syscall entry/exit hook.
  Result<xtrace::LatencyHist> SysSyscallHist(uint32_t sysno);

  // Disk multiplexing: the kernel protects block extents without
  // understanding file systems (§2: "an exokernel should protect ... disks
  // without understanding file systems"). An extent is a contiguous run of
  // blocks named by a capability; transfers move whole blocks between an
  // extent the caller can access and a frame the caller owns. Transfers
  // block the calling environment until the completion interrupt.
  struct DiskExtentGrant {
    uint32_t extent = 0;      // Extent id (capability resource index).
    uint32_t first_block = 0; // Physical disk block of extent block 0.
    uint32_t blocks = 0;
    cap::Capability cap;
  };
  Result<DiskExtentGrant> SysAllocDiskExtent(uint32_t blocks);
  Status SysFreeDiskExtent(uint32_t extent, const cap::Capability& cap);
  Status SysDiskRead(uint32_t extent, const cap::Capability& extent_cap,
                     uint32_t block_in_extent, hw::PageId frame);
  Status SysDiskWrite(uint32_t extent, const cap::Capability& extent_cap,
                      uint32_t block_in_extent, hw::PageId frame);
  // Write barrier (the flush/ordering point durability policy is built
  // from): blocks until every write the disk has acknowledged is durable.
  // The kernel still understands extents, not file systems — journaling,
  // ordering, and checkpoint policy all live in library code above this.
  // Requires a write capability on an extent the caller can access.
  Status SysDiskBarrier(uint32_t extent, const cap::Capability& extent_cap);

  // Repossession vector (abort protocol, §3.5).
  std::vector<hw::PageId> SysReadRepossessed();

  // Liveness probe: lets a library OS discover that a peer died (its pipe
  // partner, PCT server, ...) without holding that peer's capability.
  bool SysEnvAlive(EnvId env);

  // Forced termination as a syscall: requires a kRevoke-bearing capability
  // for the victim environment (e.g. the env_cap handed out at creation).
  // This is how a supervisor env reaps a wedged child. Killing the calling
  // environment does not return.
  Status SysKillEnv(EnvId victim, const cap::Capability& env_cap);

  // --- Kernel/host-side operations (not syscalls) ---

  // Visible revocation (test/bench driver): ask `victim` to give back
  // `pages` pages; on non-compliance within the handler call, repossess.
  Status RevokePages(EnvId victim, uint32_t pages);

  // Slice revocation: removes up to `slots` slice-vector slots from the
  // victim (highest-index CPUs first), never dropping it below `min_keep`
  // slots overall. Returns the number actually removed.
  uint32_t RevokeSlices(EnvId victim, uint32_t slots, uint32_t min_keep = 1);
  // Filter reclaim: force-unbinds up to `filters` of the victim's packet
  // filters (rings sever, queues drop). Returns the number unbound.
  uint32_t ReclaimFilters(EnvId victim, uint32_t filters);
  // Extent reclaim: kills up to `extents` of the victim's live disk
  // extents (epoch bump voids outstanding caps; in-flight DMA into the
  // extent is unaffected — frames, not extents, gate DMA cancellation),
  // keeping at least `min_keep` live. Returns the number reclaimed.
  uint32_t ReclaimExtents(EnvId victim, uint32_t extents, uint32_t min_keep = 0);

  // Arms the deterministic pressure engine: one-shot revocation events and
  // the storm window are posted to the machine's event queue and applied
  // from the kPressure interrupt handler, clamped by the plan's reserve
  // floor. Sibling of InstallFaultPlan.
  void InstallPressurePlan(const PressurePlan& plan);
  const PressureStats* pressure_stats() const {
    return pressure_ ? &pressure_->stats() : nullptr;
  }

  // Forced termination (crash-safe teardown): reclaims every resource the
  // victim holds — pages (abort-protocol machinery), TLB/STLB bindings,
  // packet-filter bindings and pinned ASH regions, disk extents and
  // in-flight transfers, framebuffer tiles, slice-vector slots, pending
  // PCTs — then broadcasts a death notification so blocked peers re-check
  // their wait conditions. Deferred to the outer return if a protected
  // control transfer is in flight (PCT atomicity). Killing the calling
  // environment does not return.
  Status KillEnv(EnvId victim);

  // Arms the deterministic fault injector: disk transfer errors flow
  // through the attached disk, scheduled events (environment kills,
  // spurious interrupts) are posted to the machine's event queue. Wire
  // faults are armed by handing `fault_injector()` to the hw::Wire.
  void InstallFaultPlan(const hw::FaultPlan& plan);
  hw::FaultInjector* fault_injector() { return injector_.get(); }

  // Kernel self-check: cross-checks every resource table against
  // environment liveness. Host-side (charges no simulated cycles).
  struct AuditReport {
    std::vector<std::string> violations;
    bool ok() const { return violations.empty(); }
  };
  AuditReport AuditInvariants() const;
  // When set, the kernel audits itself after every injected fault
  // (environment kill or failed disk transfer) and records violations.
  void set_audit_on_fault(bool on) { audit_on_fault_ = on; }
  uint64_t audit_failures() const { return audit_failures_; }
  const std::string& first_audit_failure() const { return first_audit_failure_; }
  uint64_t envs_killed() const { return envs_killed_; }
  // True once a FaultPlan power cut landed: Run() returned with every
  // surviving environment abandoned mid-execution, exactly as power loss
  // leaves a real machine.
  bool powered_off() const { return powered_off_; }
  bool EnvAlive(EnvId env) const;

  // Introspection for tests, benches, and the libOS bootstrap.
  hw::Machine& machine() { return machine_; }
  const cap::CapAuthority& authority() const { return authority_; }
  uint32_t free_pages() const;
  EnvId current_env() const { return cur().current; }
  uint64_t slices_of(EnvId env) const;
  // Forced kills whose reap was handed to another CPU via IPI.
  uint64_t remote_kills_sent() const { return remote_kills_sent_; }
  // TLB shootdowns performed (remote CPUs whose TLB actually held the
  // flushed translation).
  uint64_t tlb_shootdowns() const { return tlb_shootdowns_; }
  uint64_t stlb_hits() const { return stlb_hits_; }
  uint64_t stlb_misses() const { return stlb_misses_; }
  uint64_t slice_cycles() const { return config_.slice_cycles; }
  // Host-side stats snapshot (charges nothing, ignores ownership): lets
  // tests and benches inspect a binding's counters after its owner died.
  PacketStats packet_stats(dpf::FilterId id) const;
  // Host-side accounting snapshots (charge nothing); same data as the
  // syscalls, usable after the subject environment died.
  EnvStats env_stats(EnvId env) const;
  const xtrace::LatencyHist& syscall_hist(xtrace::Sys n) const {
    return syscall_hist_[static_cast<uint32_t>(n)];
  }
  bool trace_armed() const { return trace_ != nullptr; }
  // Test-only: skews an environment's pages-held counter without moving
  // any page, so tests can prove the accounting cross-check in
  // AuditInvariants catches a real leak.
  void DebugSkewPageAccounting(EnvId env, int32_t delta);
  // Test-only: skews an environment's slice-slot counter the same way, so
  // tests can prove the per-CPU slice accounting cross-check fires.
  void DebugSkewSliceAccounting(EnvId env, int32_t delta);
  // Disables the software TLB (ablation bench).
  void set_stlb_enabled(bool enabled) { stlb_enabled_ = enabled; }

  // --- hw::TrapSink ---
  hw::TrapOutcome OnException(hw::TrapFrame& frame) override;
  void OnInterrupt(hw::InterruptSource source, uint64_t payload) override;

 private:
  struct PageInfo {
    EnvId owner = kNoEnv;
    uint32_t epoch = 0;
  };

  // Kernel-side state of one bound packet ring. Slot counts and region
  // bounds are recorded here at bind time and trusted thereafter; the
  // kernel's producer/consumer cursors also live here (like a NIC's head
  // register) and are only *published* to the shared header, so nothing
  // the application scribbles into the shared region can steer a kernel
  // access outside it.
  struct RingState {
    bool live = false;
    bool batch_doorbells = true;
    hw::PageId first_page = 0;
    uint32_t pages = 0;
    uint32_t rx_slots = 0;
    uint32_t tx_slots = 0;
    uint32_t shed_watermark = 0;  // Bind-time shed policy (0 = disarmed).
    uint32_t rx_head = 0;  // Kernel RX producer cursor (trusted).
    uint32_t tx_tail = 0;  // Kernel TX consumer cursor (trusted).
  };

  struct FilterBinding {
    // Capacity cap for the legacy kernel queue: a slow consumer drops
    // frames (counted) instead of growing kernel memory without bound.
    static constexpr size_t kMaxQueuedPackets = 64;

    EnvId owner = kNoEnv;
    std::optional<ash::AshProgram> handler;
    hw::PageId region_first_page = 0;
    uint32_t region_pages = 0;
    uint32_t trace_tag_off = 0;  // Frame offset of the kDpfMatch arg3 tag.
    std::deque<std::vector<uint8_t>> queue;  // Non-ASH delivery path.
    RingState ring;
    PacketStats stats;
    bool live = false;
  };

  // Kernel-side state of the bound trace ring. Geometry and mask are
  // recorded at bind time and trusted thereafter; the producer cursor
  // lives here and is only *published* to the shared header (exactly the
  // packet-ring trust model).
  struct TraceState {
    EnvId owner = kNoEnv;
    hw::PageId first_page = 0;
    uint32_t pages = 0;
    uint32_t slots = 0;
    uint32_t mask = 0;
    uint32_t head = 0;      // Trusted free-running producer cursor.
    uint64_t dropped = 0;   // Records overwritten before the reader got them.
  };

  // Trace emission hook. Disarmed (no ring bound) this is one branch on a
  // nullptr; armed, it appends a fixed-format record at the trusted head
  // cursor with drop-oldest semantics. Record stores charge nothing (see
  // costs.h); the per-syscall charge is applied by SyscallScope.
  void Trace(xtrace::Event type, uint32_t a0 = 0, uint32_t a1 = 0, uint32_t a2 = 0,
             uint32_t a3 = 0) {
    if (trace_ == nullptr || (trace_->mask & xtrace::Bit(type)) == 0) {
      return;
    }
    TraceAppend(type, a0, a1, a2, a3);
  }
  void TraceAppend(xtrace::Event type, uint32_t a0, uint32_t a1, uint32_t a2, uint32_t a3);
  // Severs the trace binding (reclaim paths); no further records flow.
  void SeverTraceRing();

  // Entry/exit hook wrapped around every syscall body: counts the call in
  // the caller's accounting, emits enter/exit records, and feeds the
  // kernel-wide log2 latency histogram at exit. Destruction order makes
  // the exit hook run after the syscall's last Charge; fibers abandoned
  // mid-syscall (SysExit, suicide kills, power cut) simply never log an
  // exit — exactly what happened.
  class SyscallScope {
   public:
    SyscallScope(Aegis& kernel, xtrace::Sys number);
    ~SyscallScope();

    SyscallScope(const SyscallScope&) = delete;
    SyscallScope& operator=(const SyscallScope&) = delete;

   private:
    Aegis& kernel_;
    xtrace::Sys number_;
    uint64_t entry_cycle_;
  };
  // SyscallScope's exit record and its charge, for an armed trace ring.
  void TraceSyscallExit(xtrace::Sys number, uint64_t latency);

  Env& CurrentEnv();
  Env* FindEnv(EnvId id) {
    if (id == kNoEnv || id > envs_.size()) {
      return nullptr;
    }
    return envs_[id - 1].get();
  }

  // Ends the current environment's turn and hands the CPU on (see the
  // threading model). Returns once the environment has been picked again,
  // on whichever CPU, and may run; an exited or killed one never returns.
  void LeaveCpu();
  // Delivers queued async PCTs to `env` (runs its handler, charged).
  void DrainMailbox(Env& env);
  // Wakes `env` (kernel-internal paths), latching wakes aimed at runnable
  // environments so racing SysBlocks do not sleep through them.
  void WakeEnvInternal(Env& env);
  // Cross-CPU wake kick: IPIs every parked CPU holding one of `env`'s
  // slice slots so it leaves WaitForInterrupt and rescans. No-op on a
  // single-CPU machine (the one CPU is the caller).
  // Invariant: an idle CPU halts unless an env it may run is runnable
  // (RunnableOn), so every transition that makes an env runnable on a
  // parked CPU must nudge it: CreateEnv, SysWake, WakeEnvInternal, the
  // release of a still-runnable env at the end of its turn, and
  // RevokeSlices taking an env's last slot. GrantSlice needs none: only
  // CreateEnv and the running env itself call it.
  void NudgeCpusFor(const Env& env);
  // True if NudgeCpusFor would IPI CPU `cpu_index` for `env` now.
  bool NudgeTarget(const Env& env, uint32_t cpu_index) const;
  // True if `env`'s turn ends owing a nudge that sends IPIs, i.e. charges:
  // it is still runnable and a CPU it may run on is parked.
  bool OwesNudge(const Env& env) const;

  // Scheduler. RunCpu is the kernel fiber's loop; the dispatch steps below
  // are shared by it and by the fiber of an environment leaving the CPU.
  void RunCpu(uint32_t cpu_index);
  struct Pick {
    Env* env = nullptr;    // Null: nothing this CPU may run.
    bool donated = false;  // A directed yield's target.
  };
  // The environment CPU `cpu_index` runs next: the directed-yield hint,
  // then the slice scan, then the excess-penalty fallback. Charges nothing.
  Pick PickNext(uint32_t cpu_index);
  // Claims the pick for CPU `cpu_index`; the caller then switches to it.
  void Claim(const Pick& pick, uint32_t cpu_index);
  // On `env`'s fiber, once claimed: sets the address space and slice,
  // delivers its mailbox and restores its trap depth. False if `env` may
  // not run after all (it died, or the power failed).
  bool BeginTurn(Env& env);
  // The turn's accounting and release. A still-runnable env may owe parked
  // CPUs a nudge on top (OwesNudge), which the kernel fiber sends.
  void EndTurn(Env& env);
  // On `env`'s fiber, its turn over: ends the turn and switches to the
  // next pick, or to the kernel fiber for anything that charges. Returns
  // when `env` has been picked and claimed again.
  void HandOff(Env& env);
  EnvId NextRunnable(uint32_t cpu_index);
  // True if CPU `cpu_index` may run `env` now: runnable, on no CPU, not
  // being killed, and holding a slot here unless it may land anywhere (a
  // uniprocessor, or an env with no slots at all).
  bool RunnableOn(const Env& env, uint32_t cpu_index) const;
  bool AnyLive() const;
  // Least-loaded CPU admitted by `mask` (fewest owned slice slots; lowest
  // index breaks ties). Returns kNoCpu if the mask admits none.
  uint32_t PickCpu(uint64_t mask) const;
  // Grants `env` one slot on `cpu_index`'s vector; updates slot accounting.
  Status GrantSlice(Env& env, uint32_t cpu_index);
  // The only release path for an exiting env's CPU share: frees its
  // slice-vector slots and any donation aimed at it, on every CPU.
  // (RevokeSlices takes slots from a live env under pressure.)
  void ReleaseSlots(Env& env);

  // Secure-binding helpers.
  cap::ResourceId PageResource(hw::PageId page) const {
    return cap::ResourceId{cap::ResourceKind::kPhysPage, page};
  }
  cap::ResourceId EnvResource(EnvId env) const {
    return cap::ResourceId{cap::ResourceKind::kEnvironment, env};
  }
  // True if `owner` holds every frame of [first, first + count).
  bool HoldsFrames(EnvId owner, hw::PageId first, uint32_t count) const;
  // The only release path for a physical page: drops it from its owner's
  // count, frees it, bumps its epoch (outstanding capabilities die) and
  // flushes its bindings. Dealloc, repossession, teardown and pressure
  // reclaim (through RevokePages) all release frames here.
  void ReleasePage(hw::PageId page);
  // Breaks every cached binding to `page`: TLB + STLB translations, packet
  // rings, ASH pinned regions, the trace ring and in-flight DMA. Called
  // only from ReleasePage, so no binding outlives the frame. On SMP this
  // includes the IPI-driven TLB shootdown of remote CPUs.
  void FlushPageBindings(hw::PageId page);
  // Flushes `asid` from this CPU's TLB, the STLB and every remote TLB.
  void FlushAsid(hw::Asid asid);
  // Shootdown: invalidates `key`'s translations — a frame, or an asid when
  // `asid_flush` — in every *other* CPU's TLB, charging kIpiCost plus
  // kIpiRemoteInvalidate per entry for each remote CPU whose TLB held one.
  void ShootdownRemote(uint32_t key, bool asid_flush);
  // Forcibly repossesses up to `pages` pages from `victim`.
  uint32_t Repossess(Env& victim, uint32_t pages);

  // Pressure-engine internals (kPressure interrupt level). HandlePressure
  // decodes the event-queue cookie (0 = storm tick, n >= 1 = plan event
  // n-1); ApplyPressure clamps by the reserve floor, resolves kAnyEnv to
  // the richest eligible victim (seeded tie-break), and dispatches to the
  // revocation primitives above.
  void HandlePressure(uint64_t cookie);
  void ApplyPressure(PressureKind kind, EnvId victim, uint32_t amount);
  Env* PickPressureVictim(PressureKind kind);
  // Resource an env can still yield under `kind` without breaching the
  // floor (0 = ineligible).
  uint32_t PressureHeadroom(const Env& env, PressureKind kind) const;

  // Reclaims every resource class `env` holds and marks it exited (forced
  // death only: SysExit keeps pages and extents). See KillEnv for the
  // reclamation order.
  void TearDownEnv(Env& env);
  // Forced death: TearDownEnv, the kill count, and the death broadcast.
  void Reap(Env& env);
  // Runs kills postponed for PCT atomicity; called at outer-PCT return.
  void ProcessDeferredKills();
  // Wakes every blocked peer of a dead environment so it re-checks its
  // wait condition (all kernel/libOS block sites are loop-protected).
  void NotifyEnvDeath(const Env& dead);
  // Audits after an injected fault when set_audit_on_fault is armed.
  void MaybeAuditAfterFault();

  // The only release path for a filter binding: the classifier stops
  // steering frames at it and its queue, ASH and ring go (stats survive).
  Status ReleaseFilter(dpf::FilterId id);
  // Live filter bindings / disk extents `owner` holds.
  uint32_t FiltersOf(EnvId owner) const;
  uint32_t ExtentsOf(EnvId owner) const;

  // Network receive path (interrupt level).
  void HandleRxPacket();
  std::span<uint8_t> BindingRegion(FilterBinding& binding);
  // View over a live ring's region, parameterised from the *trusted*
  // binding record (never from the shared header).
  net::PacketRingView RingViewOf(const FilterBinding& binding) const;

  hw::Machine& machine_;
  Config config_;
  hw::PrivPort& priv_;
  cap::CapAuthority authority_;

  std::vector<std::unique_ptr<Env>> envs_;  // Index = EnvId - 1.
  bool running_ = false;
  bool powered_off_ = false;

  // Per-CPU scheduler state: each processor owns a linear vector of time
  // slices (paper §5.1.1 generalised), a kernel-loop fiber slot, and the
  // flags that used to be kernel-global on the uniprocessor. cur() names
  // the executing CPU's state; on a single-CPU machine that is always
  // cpu_[0], which behaves exactly as the old globals did.
  struct CpuSched {
    std::vector<EnvId> slice_vector;
    // Bit s % 64 of word s / 64 is set iff slice_vector[s] holds an env: a
    // host-side summary that charges nothing and lets the scheduler visit
    // only occupied slots. SetSlot is the only writer of either.
    std::vector<uint64_t> occupied;
    uint32_t slice_cursor = 0;
    EnvId yield_hint = kNoEnv;  // Directed-yield target (slice donation).
    EnvId current = kNoEnv;
    // Continuation slot for this CPU's loop (RunCpu), resumed by an env
    // fiber that hands it the release, the empty pick or the loop's end.
    hw::Fiber kernel_fiber;
    bool donated = false;         // The claimed turn runs on a donated slice.
    uint64_t turn_start = 0;      // Cycle the current turn began.
    Env* release = nullptr;       // Handed back: a release that owes nudges.
    bool picked_nothing = false;  // Handed back: an empty pick, to idle on.
    bool in_pct = false;
    bool slice_expired_during_pct = false;
    // True only while current runs its own code (from the end of
    // BeginTurn until LeaveCpu): the power-cut handler may abandon the
    // environment with LeaveCpu only then, never from interrupt delivery
    // inside a dispatch (BeginTurn's mailbox, WaitForInterrupt).
    bool env_fiber_active = false;

    void SetSlot(uint32_t slot, EnvId owner);
    // The first occupied slot at or after `from`, else slice_vector.size().
    uint32_t NextOccupied(uint32_t from) const;
    uint32_t OccupiedCount() const;
  };
  std::vector<CpuSched> cpu_;
  CpuSched& cur() { return cpu_[machine_.current_cpu()]; }
  const CpuSched& cur() const { return cpu_[machine_.current_cpu()]; }

  // Physical memory bindings.
  std::vector<PageInfo> pages_;
  Stlb stlb_;
  bool stlb_enabled_ = true;
  uint64_t stlb_hits_ = 0;
  uint64_t stlb_misses_ = 0;

  // Network.
  hw::Nic* nic_ = nullptr;
  dpf::DpfEngine classifier_;
  uint64_t classifier_cycles_seen_ = 0;
  std::vector<FilterBinding> bindings_;

  hw::Framebuffer* framebuffer_ = nullptr;

  // Disk extents and in-flight transfers.
  struct DiskExtent {
    uint32_t first_block = 0;
    uint32_t blocks = 0;
    EnvId owner = kNoEnv;
    uint32_t epoch = 0;
    bool live = false;
  };
  Status DiskTransfer(uint32_t extent, const cap::Capability& extent_cap,
                      uint32_t block_in_extent, hw::PageId frame, bool write);
  // The only release path for a disk extent: marks it dead and bumps its
  // epoch, so every outstanding extent capability fails its check.
  void ReleaseExtent(uint32_t extent);
  // Blocks `env` until disk request `request` retires; returns its status.
  Status AwaitDisk(Env& env, uint64_t request);
  // Retires `request`: forgets its waiter and wakes it with `status`. A
  // request nobody waits on (cancelled, spurious, or its waiter reaped)
  // retires silently.
  void RetireDiskWaiter(uint64_t request, Status status);
  hw::Disk* disk_ = nullptr;
  std::vector<DiskExtent> extents_;
  uint32_t disk_alloc_cursor_ = 0;
  std::unordered_map<uint64_t, EnvId> disk_waiters_;

  uint32_t live_envs_ = 0;

  // xtrace: the bound event ring (nullptr = disarmed) and the kernel-wide
  // per-syscall latency histograms.
  std::unique_ptr<TraceState> trace_;
  xtrace::LatencyHist syscall_hist_[xtrace::kSysCount];

  // Fault injection and crash-safe teardown.
  std::unique_ptr<hw::FaultInjector> injector_;
  // Resource pressure (revocation campaigns); nullptr when disarmed.
  std::unique_ptr<PressureEngine> pressure_;
  std::vector<EnvId> deferred_kills_;  // Kills postponed by PCT atomicity.
  uint64_t envs_killed_ = 0;
  uint64_t remote_kills_sent_ = 0;  // Reaps handed to another CPU via IPI.
  uint64_t tlb_shootdowns_ = 0;     // Remote TLBs actually invalidated.
  bool audit_on_fault_ = false;
  uint64_t audit_failures_ = 0;
  std::string first_audit_failure_;
};

inline Aegis::SyscallScope::SyscallScope(Aegis& kernel, xtrace::Sys number)
    : kernel_(kernel), number_(number), entry_cycle_(kernel.machine_.clock().now()) {
  Env* env = kernel_.FindEnv(kernel_.cur().current);
  if (env != nullptr) {
    ++env->counters.syscalls[static_cast<uint32_t>(number)];
  }
  kernel_.Trace(xtrace::Event::kSyscallEnter, static_cast<uint32_t>(number));
}

inline Aegis::SyscallScope::~SyscallScope() {
  const uint64_t latency = kernel_.machine_.clock().now() - entry_cycle_;
  kernel_.syscall_hist_[static_cast<uint32_t>(number_)].Add(latency);
  if (kernel_.trace_ != nullptr && (kernel_.trace_->mask & xtrace::kMaskSyscalls) != 0) {
    kernel_.TraceSyscallExit(number_, latency);
  }
}

}  // namespace xok::aegis

#endif  // XOK_SRC_CORE_AEGIS_H_
