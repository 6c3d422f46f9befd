// Per-request critical-path tracing, built entirely in library space.
//
// The kernel's contribution is deliberately dumb: fixed-format xtrace
// records with cycle stamps (kDpfMatch carrying a library-programmed
// correlation tag in arg3, kDiskSubmit/kDiskComplete carrying request ids,
// kAppMark carrying whatever the app said). This library owns all the
// policy: which marks mean what, how records join into a request, where
// one stage ends and the next begins. That split is the exokernel story
// one more time — Dapper-style causal tracing without a tracing subsystem
// in the kernel.
//
// Join model. Every record that mentions a request carries the request id:
//   - the client's first-send mark        (kAppMark, phase kPhaseClientSend)
//   - the demux match                     (kDpfMatch, arg3 tag = req id)
//   - the worker's enter mark             (kAppMark, phase kPhaseEnter)
//   - the worker's stage marks            (kAppMark, phase kPhaseStage)
//   - the worker's exit mark              (kAppMark, phase kPhaseExit)
//   - the client's ack mark               (kAppMark, phase kPhaseClientAck)
// Disk records join indirectly: the worker env that holds a request open
// (enter seen, exit not yet) owns any kDiskSubmit it issues, and the disk
// request id (arg2/arg0) pairs submit with complete.
//
// Spans telescope between consecutive *observed* boundaries, so a missing
// mark (a shed request never parses; an ASH request never enters a worker)
// widens the neighboring span instead of losing time: the observed spans
// of a complete timeline always sum to exactly last-first boundary, which
// is what makes the >=90% attribution contract checkable against the
// client's own first-send->ack latency measurement.
#ifndef XOK_EXOS_REQTRACE_H_
#define XOK_EXOS_REQTRACE_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/xtrace.h"

namespace xok::exos::reqtrace {

// --- The kAppMark convention (arg1 = phase) ---
// The kernel does not interpret these; they are the server/loadgen wire
// protocol for SysTraceMark, documented centrally here and in xtrace.h.
inline constexpr uint32_t kPhaseEnter = 0;       // arg2=shard, arg3=req bytes.
inline constexpr uint32_t kPhaseExit = 1;        // arg2=status,
                                                 // arg3=resp bytes|flags<<16.
inline constexpr uint32_t kPhaseStage = 2;       // arg2=stage id, arg3=depth.
inline constexpr uint32_t kPhaseClientSend = 3;  // First send only.
inline constexpr uint32_t kPhaseClientAck = 4;   // arg2=status.

// Stage ids carried in arg2 of a kPhaseStage mark.
inline constexpr uint32_t kStageParsed = 1;  // Envelope + HTTP parse done.
inline constexpr uint32_t kStageStored = 2;  // KV/journal (incl. disk) done.

// Request-class flag bits in the high half of an exit mark's arg3 (the low
// half is the response byte count).
inline constexpr uint32_t kFlagPut = 1u << 16;    // Parsed as a PUT.
inline constexpr uint32_t kFlagHot = 1u << 17;    // Key on the hot list.
inline constexpr uint32_t kFlagStale = 1u << 18;  // Served degraded/stale.

// --- Spans: the critical path in boundary order ---
enum class Span : uint8_t {
  kWire = 0,   // client send -> demux match (wire + NIC + classifier).
  kRingWait,   // demux match -> worker enter (ring residency + scheduling).
  kParse,      // enter -> parsed stage (admission + envelope + HTTP parse).
  kStore,      // parsed -> stored stage (KV/journal, including disk waits).
  kTx,         // stored -> exit (response build + TX queue).
  kAck,        // exit -> client ack (doorbell flush + wire + client poll).
  kCount,
};
inline constexpr uint32_t kSpanCount = static_cast<uint32_t>(Span::kCount);
const char* SpanName(Span s);

// --- Request classes for per-class aggregation ---
enum class Class : uint8_t {
  kAll = 0,
  kGet,    // Parsed GETs (excludes sheds).
  kPut,    // Parsed PUTs (excludes sheds).
  kHot,    // Hot-list keys, including ASH fast-path answers.
  kStale,  // Served degraded (stale snapshot under overload).
  kShed,   // 503s: admission/overload sheds.
  kCount,
};
inline constexpr uint32_t kClassCount = static_cast<uint32_t>(Class::kCount);
const char* ClassName(Class c);

// One assembled request: the joined, ordered view of every record that
// mentioned this request id.
struct RequestTimeline {
  uint32_t req_id = 0;
  uint16_t machine = 0;  // World machine index (0 when standalone).
  uint16_t env = 0;      // Worker env (0 for pure-ASH timelines).
  uint32_t shard = 0;
  uint32_t status = 0;   // From the exit mark (or client ack for ASH).
  uint32_t flags = 0;    // kFlag* bits from the exit mark.
  uint8_t path = 0xff;   // Delivery path from kDpfMatch (0xff = unobserved).
  uint64_t span[kSpanCount] = {};   // Cycles; meaningful iff seen[i].
  bool seen[kSpanCount] = {};
  uint64_t disk_cycles = 0;  // Submit->complete waits inside kStore.
  uint64_t disk_ios = 0;
  uint64_t first_cycle = 0;  // Earliest observed boundary.
  uint64_t last_cycle = 0;   // Latest observed boundary.
  bool complete = false;     // Closed by an ack (or exit without a send).

  // Sum of observed spans == last_cycle - first_cycle by construction.
  uint64_t Total() const;
  bool Is(Class c) const;
};

// Nearest-rank percentile over an ascending-sorted sample vector:
// rank = ceil(per_mille * n / 1000), clamped to [1, n]; returns
// sorted[rank - 1], or 0 when empty. p50 -> per_mille 500, p999 -> 999.
uint64_t Percentile(std::span<const uint64_t> sorted, uint32_t per_mille);

// Assembles a stream of xtrace records into request timelines and
// per-(class, span) aggregates. Feed it records in ring order (Add), or a
// whole post-mortem region decode at once. Works the same whether the
// records came from a live TraceSession drain or DecodeRegion after a
// crash — that is the flight-recorder property: the last K complete
// timelines survive in the ring pages and reassemble after the fact.
class Collector {
 public:
  // `machine` tags the record stream's origin when several machines feed
  // one collector (a World rack drains one TraceSession per machine).
  // Request ids, worker envs and disk request ids are only unique within
  // a machine, so the tag is part of every join key.
  void Add(const xtrace::Record& record, uint16_t machine = 0);
  void AddAll(std::span<const xtrace::Record> records, uint16_t machine = 0);

  // Every completed timeline, in completion order.
  const std::vector<RequestTimeline>& all() const { return all_; }
  // Most recent completed timeline for `req_id` (nullptr if none).
  const RequestTimeline* Find(uint32_t req_id) const;

  uint64_t completed(Class c) const {
    return completed_[static_cast<uint32_t>(c)];
  }
  // Requests observed but never closed (e.g. cut off by a crash).
  uint64_t incomplete() const { return pending_.size(); }

  // Raw samples (arrival order, NOT sorted): per-(class, span) cycles and
  // per-class covered totals (sum of observed spans per request).
  const std::vector<uint64_t>& samples(Class c, Span s) const {
    return samples_[static_cast<uint32_t>(c)][static_cast<uint32_t>(s)];
  }
  const std::vector<uint64_t>& covered(Class c) const {
    return covered_[static_cast<uint32_t>(c)];
  }

 private:
  // Boundary slots in path order; span i spans boundary i -> i+1.
  enum Boundary : uint32_t {
    kBSend = 0, kBDemux, kBEnter, kBParsed, kBStored, kBExit, kBAck,
    kBoundaryCount,
  };
  struct Pending {
    uint64_t at[kBoundaryCount] = {};
    bool has[kBoundaryCount] = {};
    uint16_t machine = 0;
    uint16_t env = 0;
    uint32_t shard = 0;
    uint32_t status = 0;
    uint32_t flags = 0;
    uint8_t path = 0xff;
    uint64_t disk_cycles = 0;
    uint64_t disk_ios = 0;
  };

  void Finalize(uint32_t req_id, Pending& p);

  // Keyed by machine << 32 | req_id.
  std::unordered_map<uint64_t, Pending> pending_;
  // (machine, env) -> request currently open in that worker (enter seen,
  // exit not): the join key for disk records, which carry no request id of
  // their own. Keyed by machine << 16 | env.
  std::unordered_map<uint32_t, uint32_t> open_by_env_;
  struct DiskIo {
    uint32_t req_id = 0;
    uint64_t submit_cycle = 0;
  };
  // Keyed by machine << 32 | disk request id.
  std::unordered_map<uint64_t, DiskIo> disk_inflight_;

  std::vector<RequestTimeline> all_;
  uint64_t completed_[kClassCount] = {};
  std::vector<uint64_t> samples_[kClassCount][kSpanCount];
  std::vector<uint64_t> covered_[kClassCount];
};

// One-shot post-mortem assembly: DecodeRegion output in, every complete
// timeline out (oldest first).
std::vector<RequestTimeline> AssembleTimelines(
    std::span<const xtrace::Record> records);

// Multi-line human rendering of one timeline (the flight-recorder print).
std::string FormatTimeline(const RequestTimeline& t);

}  // namespace xok::exos::reqtrace

#endif  // XOK_EXOS_REQTRACE_H_
