// Seeded load generator for the HTTP/KV server: a client environment that
// replays a deterministic request stream (zipf-skewed keys, PUT/GET mix,
// bursts, malformed frames, oversized keys) against a
// server on the same simulated machine (NIC internal loopback), measuring
// the *whole software path* — client build, demux, worker, store, reply —
// in simulated cycles.
//
// Delivery is closed-loop with a bounded in-flight window; a request that
// goes unacknowledged past the retry timeout is retransmitted (UDP), so
// the generator doubles as the failover path in the chaos tests: when a
// worker is killed mid-burst, its in-flight requests simply retry until
// the Supervisor's restarted incarnation rebinds the shard filter.
//
// Every GET response is verified end to end: the X-Sum header must match
// the body, and the body must be a MakeValue() image of some version the
// client has actually written (a crash-restarted worker may legally serve
// an older acked version — data *loss* is visible, data *corruption* is
// counted in LoadStats::corrupt and must be zero).
#ifndef XOK_SRC_EXOS_SERVER_LOADGEN_H_
#define XOK_SRC_EXOS_SERVER_LOADGEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/xtrace.h"
#include "src/exos/reqtrace.h"
#include "src/exos/server/httpkv.h"
#include "src/exos/udp.h"

namespace xok::exos::server {

// Canonical key universe: "k000", "k001", ...
std::string LoadKeyName(uint32_t i);

// Deterministic value image for (key, version): "key#version#<padding>",
// padded to `value_bytes` with characters derived from the key hash.
std::string MakeValue(std::string_view key, uint32_t version, uint32_t value_bytes);

// Parses the version out of a MakeValue image and verifies every other
// byte; returns the version, or -1 if `body` is not a valid image for
// `key` at any version.
int ParseValueVersion(std::string_view key, std::string_view body, uint32_t value_bytes);

// Preload image shared by server and client: every key at version 0.
std::vector<std::pair<std::string, std::string>> MakePreload(uint32_t keys,
                                                             uint32_t value_bytes);

struct WorkloadConfig {
  uint64_t seed = 1;
  uint32_t requests = 200;     // Data requests (QUITs and retries extra).
  uint32_t keys = 12;
  double zipf_s = 1.1;         // Key popularity skew (zipf exponent).
  uint32_t value_bytes = 64;
  uint32_t put_per_mille = 150;
  uint32_t malformed_per_mille = 0;  // Valid envelope, garbage text: expect 400.
  uint32_t oversized_per_mille = 0;  // Key past kMaxKeyBytes: expect 400.
  uint32_t window = 4;               // Closed-loop in-flight cap.
  uint32_t burst = 16;               // Requests between idle gaps.
  uint64_t burst_gap_cycles = 0;
  uint64_t retry_timeout_cycles = 100'000;
  uint32_t max_retries = 60;
  // --- Client robustness under overload ---
  // Exponential backoff: the per-request retransmit wait starts at
  // retry_timeout_cycles and doubles per retry up to this cap. 0 keeps
  // the legacy fixed-interval retransmit.
  uint64_t retry_backoff_cap_cycles = 0;
  // Seeded jitter: each wait is drawn from [wait/2, wait] off a separate
  // SplitMix stream, so two clients that lost the same burst decorrelate
  // instead of re-colliding every timeout (the workload stream itself is
  // untouched — same seed still sends the same requests).
  bool retry_jitter = false;
  // Per-request TTL: requests carry an absolute deadline (send + ttl) in
  // the envelope; the server sheds expired work before parse cost, and
  // the client stops retrying past the deadline (counted ttl_abandoned,
  // not gave_up — under deliberate overload that is the contract working,
  // not a failure). 0 = no deadlines.
  uint64_t request_ttl_cycles = 0;
  // Open-loop overdrive: send a new request every this many cycles
  // regardless of how many are outstanding — the closed-loop window no
  // longer bounds offered load, which is how the overload bench pushes a
  // multiple of the server's peak throughput. 0 = closed loop (window).
  uint64_t open_loop_interval_cycles = 0;
  // Probe every shard (a GET for an impossible key; any reply counts)
  // before starting the measured data phase: a freshly supervised worker
  // spends tens of millions of cycles formatting its journaled file
  // system and preloading, and a closed-loop client that starts the
  // clock — and its retry budget — against a booting server measures the
  // boot, not the service.
  bool warmup = true;
  // Poll a RevocationClient before each wait: under a resource-pressure
  // storm (the chaos arm) the client's own filter, ring, or pages can be
  // revoked, and a measurement client that silently goes deaf would
  // report server failures that are really its own.
  bool repair = false;
  uint64_t deadline_cycles = 2'000'000'000;  // Whole-run fail-safe.
  RingConfig ring;  // Falls back to the kernel queue if no ring binds.
  uint16_t client_port = 7999;
  bool quit_when_done = true;  // One QUIT per shard after the data phase.
  // Bind the (global, one-per-kernel) trace ring and harvest kDpfMatch
  // path counts, kAppMark service times, and full per-request critical-path
  // timelines (LoadStats::stages, ::reqs) via src/exos/reqtrace.
  bool trace = false;
  // Emit the first-send/ack SysTraceMark boundaries WITHOUT binding the
  // ring (the ring is one-per-kernel): a flight-recorder observer env owns
  // it instead and assembles timelines post-mortem (DecodeRegion). Marks
  // into an unarmed or foreign ring cost nothing extra here — the client
  // is off the simulated critical path. Implied by trace.
  bool mark_requests = false;
  // SLO accounting: an acked data request slower than this (first-send ->
  // ack) counts late instead of good, and the per-stage spans of every
  // late request are aggregated into SloReport::late_span — "the p99 is
  // over budget BECAUSE of ring-wait" instead of just "it is over".
  // 0 disarms. Requires trace for the attribution half.
  uint64_t slo_cycles = 0;
};

struct LatencySummary {
  uint64_t count = 0;
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
  uint64_t max = 0;
  double mean = 0.0;
  // Tail percentiles need tails: below 100 samples p99/p999 report 0 with
  // this flag raised rather than masquerading the max as a percentile.
  bool samples_insufficient = false;
};
// Consumes (sorts) the sample vector; percentiles are nearest-rank.
LatencySummary SummarizeLatencies(std::vector<uint64_t> samples);

// Per-stage view from the kernel trace ring (exokernel runs only).
struct StageBreakdown {
  uint64_t path_queue = 0;  // kDpfMatch arg2 == 0 (legacy copy path).
  uint64_t path_ring = 0;   // arg2 == 1 (zero-copy ring).
  uint64_t path_ash = 0;    // arg2 == 2 (interrupt-level fast path).
  LatencySummary service;   // kAppMark enter->exit inside the worker.
};

// Per-request critical-path aggregation over the run's trace records
// (trace = true runs only), assembled by src/exos/reqtrace: per-span
// summaries for the all-requests class plus the covered total (each
// request's sum of observed spans) — the numerator of the >=90%
// attribution contract in bench_abl_reqtrace.
struct ReqTraceReport {
  uint64_t timelines = 0;  // Complete request timelines joined.
  LatencySummary span[reqtrace::kSpanCount];
  LatencySummary covered;
  uint64_t disk_ios = 0;   // Disk waits attributed inside store spans.
};

// SLO accounting (slo_cycles > 0): every acked data request is good or
// late against the budget; requests never acked at all (TTL-abandoned or
// retried out) are shed. late_span aggregates the per-stage spans of late
// requests only — the attribution of *why* the tail missed.
struct SloReport {
  uint64_t slo_cycles = 0;
  uint64_t good = 0;
  uint64_t late = 0;
  uint64_t shed = 0;
  LatencySummary late_span[reqtrace::kSpanCount];
};

struct LoadStats {
  uint64_t sent = 0;     // First transmissions (retries counted apart).
  uint64_t acked = 0;
  uint64_t retries = 0;
  uint64_t gave_up = 0;  // Abandoned after max_retries.
  uint64_t dup_acks = 0; // Second reply to a retried request (UDP).
  uint64_t busy_503 = 0; // Transient server-side failures; stayed in flight.
  uint64_t retry_after = 0;    // 503s carrying a Retry-After pacing hint.
  uint64_t stale_200 = 0;      // X-Stale GETs (degraded-mode cache reads).
  uint64_t ttl_abandoned = 0;  // Stopped retrying: request deadline passed.
  uint64_t ok_200 = 0;
  uint64_t created_201 = 0;
  uint64_t bad_400 = 0;
  uint64_t not_found_404 = 0;
  uint64_t corrupt = 0;     // X-Sum/body verification failures: must be 0.
  uint64_t unexpected = 0;  // Unparseable acks or wrong status codes.
  uint64_t deadline_hit = 0;
  uint64_t warmup_cycles = 0;   // Bind-to-ready (server boot, unmeasured).
  uint64_t elapsed_cycles = 0;  // Data phase (excludes warmup and the QUIT drain).
  LatencySummary latency;       // First-send -> ack, acked data requests.
  LatencySummary hot_latency;   // Hot-key GETs only (the ASH candidates).
  StageBreakdown stages;
  ReqTraceReport reqs;          // trace = true runs only.
  SloReport slo;                // slo_cycles > 0 runs only.
  // Raw drained trace records (trace = true): callers feed these to their
  // own reqtrace::Collector for per-class breakdowns, flight-recorder
  // prints, or anything else the summaries above did not pre-chew.
  std::vector<xtrace::Record> trace_records;

  double Rps() const;  // Acked data requests per simulated second.
};

struct LoadGenTarget {
  NetIface iface;  // The client's interface.
  uint32_t server_ip = 0;
  uint16_t server_port = 0;
  uint32_t workers = 1;   // Server shard count (QUIT addressing).
  std::string hot_key;    // Tracked in hot_latency; "" = LoadKeyName(0).
};

// Runs the workload from inside `proc`'s environment; returns when every
// request is acknowledged or abandoned (and QUITs are delivered).
LoadStats RunLoadGen(Process& proc, const LoadGenTarget& target,
                     const WorkloadConfig& config);

}  // namespace xok::exos::server

#endif  // XOK_SRC_EXOS_SERVER_LOADGEN_H_
