// xtrace: kernel event tracing and per-environment resource accounting,
// exposed the exokernel way (paper §2: "expose, don't abstract").
//
// Aegis does no measurement *policy*: it appends fixed-format binary
// records to an event ring living in application-owned pinned pages
// (bound with Aegis::SysBindTraceRing — the same capability-bound
// shared-page pattern as the packet rings) and keeps raw per-environment
// counters readable via SysEnvStats. All decoding, aggregation, and
// reporting is untrusted library code (src/exos/tracelib).
//
// Ring layout: one net::SharedRing (src/net/shm_ring.h states the header,
// the free-running index rule and the trust model once) with 32-byte
// Record slots:
//
//   [header 64 bytes | slots * 32-byte Record]
//
// The header's user word holds the bind-time event mask and its counter
// the drop count. The kernel owns `head` (published from a trusted
// kernel-side cursor exactly like the packet rings); the reader owns
// `tail`. Writes never stall: when head - tail reaches the slot count the
// kernel keeps writing (drop-oldest) and counts the overwritten records
// in `dropped`. A hostile tail can at worst misreport the owner's own
// drop count.
//
// Cost model: the per-record stores land in the R3000 write buffer and
// the per-env counters model free-running hardware event counters, so
// neither charges simulated cycles on its own; an *armed* ring adds
// kTraceArmedSyscall (one instruction: head publish + histogram index)
// to each traced syscall. A disarmed hook is a single branch on a
// nullptr ring (see Aegis::Trace).
#ifndef XOK_SRC_CORE_XTRACE_H_
#define XOK_SRC_CORE_XTRACE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "src/base/result.h"
#include "src/net/shm_ring.h"

namespace xok::xtrace {

// --- Event types (fits in the 32-bit bind-time mask) ---

enum class Event : uint8_t {
  kSyscallEnter = 0,   // arg0 = Sys number.
  kSyscallExit = 1,    // arg0 = Sys number, arg1 = latency cycles (low 32),
                       // arg2 = latency cycles (high 32).
  kException = 2,      // arg0 = hw::ExceptionType, arg1 = bad_vaddr.
  kStlbFill = 3,       // TLB miss satisfied from the software TLB.
                       // arg0 = vpn.
  kSliceSwitch = 4,    // env = environment being resumed, arg0 = donated.
  kYield = 5,          // arg0 = directed-yield target (kAnyEnv if none).
  kRevoke = 6,         // arg0 = victim env, arg1 = pages requested.
  kRepossess = 7,      // arg0 = victim env, arg1 = pages taken by force.
  kInterrupt = 8,      // arg0 = hw::InterruptSource, arg1 = payload (low 32).
  kDpfMatch = 9,       // arg0 = filter id, arg1 = frame bytes, arg2 = path
                       // (0 queue, 1 ring, 2 ASH), arg3 = library-programmed
                       // correlation tag: 4 big-endian frame bytes at the
                       // offset the owner named in FilterBindSpec::
                       // trace_tag_off (0 when untagged/short frame). The
                       // server libOS points it at the request id, which
                       // joins the demux timestamp into reqtrace timelines.
  kDpfDrop = 10,       // arg0 = reason (0 no match, 1 ring full, 2 queue
                       // full, 3 dead owner, 4 shed watermark), arg1 =
                       // filter id.
  kDiskSubmit = 11,    // arg0 = block, arg1 = write flag, arg2 = request id.
  kDiskComplete = 12,  // arg0 = request id, arg1 = failed flag.
  kDiskBarrier = 13,   // arg0 = request id, arg1 = blocks drained.
  kEnvBirth = 14,      // arg0 = new env id.
  kEnvDeath = 15,      // arg0 = env id, arg1 = killed flag (0 clean exit).
  kPct = 16,           // arg0 = callee env, arg1 = sync flag.
  kPowerCut = 17,
  kMigration = 18,     // env = migrating env, arg0 = from cpu, arg1 = to cpu.
  kIpi = 19,           // arg0 = target cpu, arg1 = payload (low 32).
  kTlbShootdown = 20,  // arg0 = pfn or asid, arg1 = remote cpu,
                       // arg2 = entries invalidated, arg3 = asid flag.
  kPressureTick = 21,  // arg0 = PressureKind, arg1 = victim env,
                       // arg2 = amount requested, arg3 = amount applied.
  kSliceRevoke = 22,   // arg0 = victim env, arg1 = slots revoked,
                       // arg2 = slots remaining.
  kFilterReclaim = 23,  // arg0 = victim env, arg1 = filter id.
  kExtentReclaim = 24,  // arg0 = victim env, arg1 = extent id.
  kAppMark = 25,       // Application-defined record (SysTraceMark): the
                       // kernel stamps cycle/seq/env, the args mean
                       // whatever the emitting library says they mean.
                       // The server libOS convention (src/exos/server,
                       // constants in src/exos/reqtrace.h): arg0 = request
                       // id, arg1 = phase — 0 worker enter (arg2 = shard,
                       // arg3 = payload bytes), 1 worker exit (arg2 =
                       // status, arg3 = response bytes | class flags<<16),
                       // 2 worker stage boundary (arg2 = stage id, arg3 =
                       // queue depth), 3 client first send, 4 client ack
                       // (arg2 = status).
};
inline constexpr uint32_t kEventCount = 26;

constexpr uint32_t Bit(Event e) { return 1u << static_cast<uint32_t>(e); }
inline constexpr uint32_t kMaskAll = 0xffffffffu;
inline constexpr uint32_t kMaskSyscalls =
    Bit(Event::kSyscallEnter) | Bit(Event::kSyscallExit);
inline constexpr uint32_t kMaskEnvLifecycle =
    Bit(Event::kEnvBirth) | Bit(Event::kEnvDeath);

const char* EventName(Event e);

// --- Record format (32 bytes, fixed) ---

struct Record {
  uint64_t cycle = 0;  // Timestamp (simulated cycle clock).
  uint32_t seq = 0;    // Free-running record index (== producer head).
  uint16_t type = 0;   // Event.
  uint16_t env = 0;    // Environment the event is attributed to (0 = kernel).
  uint32_t arg0 = 0;
  uint32_t arg1 = 0;
  uint32_t arg2 = 0;
  uint32_t arg3 = 0;
};
static_assert(sizeof(Record) == 32, "trace records are a fixed 32 bytes");
inline constexpr uint32_t kRecordBytes = 32;

// --- Syscall numbering (accounting + latency histogram index) ---

enum class Sys : uint8_t {
  kNull = 0,
  kGetCycles,
  kSelf,
  kCpuSlices,
  kYield,
  kBlock,
  kSleep,
  kWake,
  kExit,
  kAllocPage,
  kDeallocPage,
  kTlbWrite,
  kTlbInvalidate,
  kTlbInvalidateRange,
  kDeriveCap,
  kPctCall,
  kPctSend,
  kBindFilter,
  kUnbindFilter,
  kRecvPacket,
  kNetSend,
  kBindPacketRing,
  kUnbindPacketRing,
  kTxRing,
  kPacketStats,
  kBindFbTile,
  kAllocDiskExtent,
  kFreeDiskExtent,
  kDiskRead,
  kDiskWrite,
  kDiskBarrier,
  kReadRepossessed,
  kEnvAlive,
  kBindTraceRing,
  kUnbindTraceRing,
  kEnvStats,
  kSyscallHist,
  kCpuCount,
  kCurrentCpu,
  kAllocSlice,
  kKillEnv,
  kTraceMark,
  kCount,
};
inline constexpr uint32_t kSysCount = static_cast<uint32_t>(Sys::kCount);

const char* SysName(Sys n);

// --- Per-environment resource accounting ---
//
// Modelled as free-running hardware event counters (like R3000 coprocessor
// performance counters): always on, charge nothing, raw. Aggregation into
// rates/ratios is library policy.
struct EnvCounters {
  uint64_t cycles_on_cpu = 0;  // Cycles consumed while this env's fiber ran.
  uint64_t syscalls[kSysCount] = {};
  uint64_t tlb_misses = 0;   // Hardware TLB misses taken by this env.
  uint64_t stlb_hits = 0;    // ...satisfied by the software TLB.
  uint64_t stlb_misses = 0;  // ...dispatched to the application handler.
  uint64_t packets_rx = 0;   // Frames delivered to this env's bindings.
  uint64_t packets_tx = 0;   // Frames sent (SysNetSend + ring TX + ASH replies).
  uint64_t packets_shed = 0;  // Frames dropped for this env's bindings at the
                              // library-installed watermark or a full ring.
  uint64_t disk_blocks_read = 0;
  uint64_t disk_blocks_written = 0;
  uint64_t faults_injected = 0;  // Injected faults that landed on this env.
  uint64_t migrations = 0;       // Resumes on a different CPU than the last.
  uint64_t ipis_sent = 0;        // IPIs this env's syscalls caused.
  uint64_t tlb_shootdowns = 0;   // Remote TLBs invalidated on its behalf.
  uint64_t repossess_overflow = 0;  // Repossessed pages dropped from the
                                    // (bounded) repossession vector.
  uint64_t slices_revoked = 0;   // Slice slots taken back under pressure.

  uint64_t syscalls_total() const {
    uint64_t total = 0;
    for (uint64_t n : syscalls) {
      total += n;
    }
    return total;
  }
};

// --- Log2 latency histogram (per syscall number, kernel-wide) ---

inline constexpr uint32_t kHistBuckets = 32;

struct LatencyHist {
  uint64_t bucket[kHistBuckets] = {};  // bucket[i]: latency in [2^i, 2^(i+1)).
  uint64_t count = 0;
  uint64_t total_cycles = 0;
  uint64_t max_cycles = 0;

  void Add(uint64_t cycles) {
    ++bucket[BucketOf(cycles)];
    ++count;
    total_cycles += cycles;
    if (cycles > max_cycles) {
      max_cycles = cycles;
    }
  }

  // floor(log2(cycles)), with 0 in bucket 0 and everything from
  // 2^(kHistBuckets - 1) up in the last bucket.
  static uint32_t BucketOf(uint64_t cycles) {
    return std::min<uint32_t>(std::bit_width(cycles | 1) - 1, kHistBuckets - 1);
  }
};

// --- The shared-memory ring itself ---

class TraceRingView {
 public:
  static constexpr uint32_t kMagic = 0x78747247;  // "xtrG"
  static constexpr uint32_t kHeaderBytes = net::SharedRing::kHeaderBytes;

  TraceRingView() = default;

  // Record slots that fit in a region of `bytes` (0 if none do).
  static uint32_t SlotsFor(size_t bytes);

  // Interprets `region` as a ring with `slots` records. Fails on zero
  // slots or a region too small for them.
  static Result<TraceRingView> Attach(std::span<uint8_t> region, uint32_t slots);
  // Attach, inferring the slot count from the header's own `slots` field
  // (reader side; validates magic and geometry against the region size).
  static Result<TraceRingView> AttachExisting(std::span<uint8_t> region);
  // Attach + initialise the header (kernel side of a fresh binding).
  static Result<TraceRingView> Format(std::span<uint8_t> region, uint32_t slots,
                                      uint32_t mask);

  uint32_t slots() const { return ring_.slots(); }

  // Shared-header accessors (all untrusted to readers).
  uint32_t head() const { return ring_.head(); }
  uint32_t tail() const { return ring_.tail(); }
  uint32_t mask() const { return ring_.word(); }
  uint64_t dropped() const { return ring_.counter(); }
  void set_head(uint32_t v) { ring_.set_head(v); }
  void set_tail(uint32_t v) { ring_.set_tail(v); }
  void set_dropped(uint64_t v) { ring_.set_counter(v); }

  // Raw record access; `index` is free-running (reduced modulo slots).
  void Write(uint32_t index, const Record& record) {
    std::memcpy(ring_.Slot(index), &record, kRecordBytes);
  }
  Record Read(uint32_t index) const {
    Record record;
    std::memcpy(&record, ring_.Slot(index), kRecordBytes);
    return record;
  }

 private:
  TraceRingView(std::span<uint8_t> region, uint32_t slots)
      : ring_(region.data(), region.data() + kHeaderBytes, slots, kRecordBytes) {}

  net::SharedRing ring_;
};

}  // namespace xok::xtrace

#endif  // XOK_SRC_CORE_XTRACE_H_
