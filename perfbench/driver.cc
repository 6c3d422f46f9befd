// The repository benchmark driver. Runs one named workload against the
// xok system through its public entry points only — KvServer + RunLoadGen
// on a machine built here, and RunRack — and reads every layer from the
// outside through free host-side counters and the reqtrace spans.
//
//   perfbench_driver --workload kv-get|kv-put-open|rack-4 --seed N
//                    --seconds S --trace 0|1 [--determinism]
//
// A run repeats whole simulated experiments until S host seconds have
// passed. Experiment i uses sub-seed i mod K (K fixed per workload, drawn
// from --seed), so simulated metrics are medians over the same K
// experiments on every run with that seed, and each repeated sub-seed is a
// determinism check: its simulated results must match the first run of
// that sub-seed exactly. Host metrics come from every experiment of the
// run: the fastest 2% (the 2nd percentile of host seconds), which keeps the
// host's spells of interference from other tenants out of the figure.
//
// Every experiment passes a correctness gate first (no corrupt, unexpected,
// abandoned or unanswered request, a clean kernel audit). Any failure
// prints {"correct": false, ...} with no metrics and exits 1.
//
// The last line of stdout is the result object; the lines before it are a
// human-readable table.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/metrics.h"
#include "src/base/rand.h"
#include "src/core/aegis.h"
#include "src/exos/fs.h"
#include "src/exos/process.h"
#include "src/exos/reqtrace.h"
#include "src/exos/server/loadgen.h"
#include "src/exos/server/rack.h"
#include "src/exos/server/server.h"
#include "src/hw/cost.h"
#include "src/hw/disk.h"
#include "src/hw/machine.h"
#include "src/hw/nic.h"

namespace perfbench {
namespace {

using xok::aegis::Aegis;
using xok::aegis::EnvId;
using xok::aegis::EnvStats;
using xok::exos::Process;
using xok::exos::reqtrace::Span;
using xok::exos::server::KvServer;
using xok::exos::server::KvServerConfig;
using xok::exos::server::LatencySummary;
using xok::exos::server::LoadGenTarget;
using xok::exos::server::LoadKeyName;
using xok::exos::server::LoadStats;
using xok::exos::server::RackConfig;
using xok::exos::server::RackResult;
using xok::exos::server::WorkloadConfig;
using xok::xtrace::Sys;

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Host time of the simulating thread. The simulator runs every machine,
// CPU and environment as fibers of this one thread, so its CPU time is the
// host cost of an experiment; unlike wall time it leaves out the time other
// processes on the host held the CPU.
double HostSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Host metrics report this per-mille quantile of the run's experiments:
// the machine's least-disturbed state. Interference only ever slows an
// experiment down, and a real slowdown moves the fastest ones too.
constexpr uint32_t kFastPerMille = 20;

double Us(uint64_t cycles) { return xok::hw::CyclesToMicros(cycles); }

// --- Workloads ---

constexpr uint32_t kKeys = 16;
constexpr uint32_t kValueBytes = 64;
constexpr uint16_t kServerPort = 7080;
constexpr uint16_t kClientPort = 7999;
constexpr uint32_t kServerCpus = 2;  // Also the shard (worker) count.

struct KvWorkload {
  bool ash = false;
  size_t value_cache = 32;
  uint32_t put_per_mille = 0;
  uint32_t requests = 0;
  uint32_t window = 4;
  uint64_t open_loop_interval = 0;  // 0 = closed loop.
  uint64_t retry_timeout = 100'000;
  uint64_t retry_backoff_cap = 0;
  bool retry_jitter = false;
};

// The Cheetah path: GET-only zipf over 16 keys that all fit the value
// cache, hot key on the ASH, closed loop with window 4 on saturated CPUs.
constexpr KvWorkload kKvGet{
    .ash = true, .value_cache = 32, .put_per_mille = 0, .requests = 4000, .window = 4};

// Writes through the journaled store: 50% PUT, a value cache smaller than
// the key set, ASH off, open loop at 200 r/s (one request per 125,000
// cycles) for 6 simulated seconds, jittered exponential retry backoff.
// 1200 requests leave every p99 over them at least 10 samples of tail.
constexpr KvWorkload kKvPutOpen{.ash = false,
                                .value_cache = 4,
                                .put_per_mille = 500,
                                .requests = 1200,
                                .open_loop_interval = 125'000,
                                .retry_timeout = 2'500'000,
                                .retry_backoff_cap = 10'000'000,
                                .retry_jitter = true};

// Four 2-CPU servers behind one wire, four closed-loop RDP lanes, 25% PUT.
RackConfig RackSpec(uint64_t seed, uint32_t requests_per_lane, bool traced) {
  RackConfig config;
  config.server_machines = 4;
  config.cpus_per_server = kServerCpus;
  config.client_cpus = 2;
  config.lanes = 4;
  config.requests_per_lane = requests_per_lane;
  config.keys = kKeys;
  config.value_bytes = kValueBytes;
  config.put_per_mille = 250;
  config.seed = seed;
  config.trace_requests = traced;
  return config;
}
constexpr uint32_t kRackRequestsPerLane = 250;

// --- One experiment's result ---

struct Experiment {
  std::string error;  // Non-empty: the correctness gate failed.
  uint64_t attempted = 0;
  uint64_t answered_ok = 0;
  double host_s = 0;      // Construction through teardown.
  double setup_s = 0;     // Construction through the first measured request.
  double measured_mcycles = 0;  // Simulated megacycles of the measured phase.
  Metrics sim;            // Simulated values: exact for a given sub-seed.
  uint64_t fingerprint = 0;  // RackResult::fingerprint (rack-4 only).
};

// --- KV workloads: the server libOS on one 2-CPU machine, client on loopback ---

uint64_t LoopResolve(uint32_t) { return 0xa; }

// Free-running counters read host-side (they charge nothing).
enum Counter : uint32_t {
  kNicTx,
  kNicStallCycles,
  kDiskBarriers,
  kDiskDurable,
  kSyscalls,
  kSleeps,
  kBlocks,
  kTxRingCalls,
  kTxRingCycles,
  kBarrierCalls,
  kBarrierCycles,
  kDiskIos,
  kServerCycles,  // Every env but the client.
  kClientCycles,
  kClientSleeps,
  kMigrations,
  kWorkerRequests,
  kWorkerBatches,
  kWorkerSyncs,
  kAshHits,
  kCounterCount,
};
using Counters = std::array<uint64_t, kCounterCount>;

Counters Since(Counters now, const Counters& then) {
  for (uint32_t i = 0; i < kCounterCount; ++i) {
    now[i] -= then[i];
  }
  return now;
}

Counters ReadCounters(const Aegis& kernel, const xok::hw::Nic& nic, const xok::hw::Disk& disk,
                      const KvServer& server, EnvId client) {
  Counters c{};
  c[kNicTx] = nic.frames_transmitted();
  c[kNicStallCycles] = nic.tx_stall_cycles();
  c[kDiskBarriers] = disk.barriers_completed();
  c[kDiskDurable] = disk.blocks_made_durable();
  for (uint32_t n = 0; n < xok::xtrace::kSysCount; ++n) {
    c[kSyscalls] += kernel.syscall_hist(static_cast<Sys>(n)).count;
  }
  c[kSleeps] = kernel.syscall_hist(Sys::kSleep).count;
  c[kBlocks] = kernel.syscall_hist(Sys::kBlock).count;
  c[kTxRingCalls] = kernel.syscall_hist(Sys::kTxRing).count;
  c[kTxRingCycles] = kernel.syscall_hist(Sys::kTxRing).total_cycles;
  c[kBarrierCalls] = kernel.syscall_hist(Sys::kDiskBarrier).count;
  c[kBarrierCycles] = kernel.syscall_hist(Sys::kDiskBarrier).total_cycles;
  c[kDiskIos] =
      kernel.syscall_hist(Sys::kDiskRead).count + kernel.syscall_hist(Sys::kDiskWrite).count;
  for (EnvId id = 1;; ++id) {
    const EnvStats s = kernel.env_stats(id);
    if (s.env == xok::aegis::kNoEnv) {
      break;
    }
    c[kMigrations] += s.counters.migrations;
    if (id == client) {
      c[kClientCycles] = s.counters.cycles_on_cpu;
      c[kClientSleeps] = s.counters.syscalls[static_cast<uint32_t>(Sys::kSleep)];
    } else {
      c[kServerCycles] += s.counters.cycles_on_cpu;
    }
  }
  for (uint32_t w = 0; w < server.workers(); ++w) {
    const auto& ws = server.worker_stats(w);
    c[kWorkerRequests] += ws.requests;
    c[kWorkerBatches] += ws.batches;
    c[kWorkerSyncs] += ws.syncs;
  }
  c[kAshHits] = server.TotalAshHits();
  return c;
}

// One whole KV experiment. The client env runs loadgen twice: a warm-up
// call that only probes every shard until the booted server answers (the
// end of set-up), then the measured call. Counters are read at the
// boundary and after Run, so per-request ratios cover the measured phase.
struct KvRun {
  std::string error;
  LoadStats warm;
  LoadStats stats;
  Counters delta;
  xok::exos::server::KvStore::Stats store;
  uint64_t trace_mark_failures = 0;
  double setup_s = 0;
  double measured_mcycles = 0;
  uint64_t end_cycle = 0;
};

KvRun RunKvStack(const KvWorkload& w, uint64_t seed, bool traced, double t0) {
  KvRun run;
  xok::hw::Machine machine(
      xok::hw::Machine::Config{.phys_pages = 4096, .name = "perfbench", .cpus = kServerCpus});
  Aegis kernel(machine, Aegis::Config{.max_envs = 200});
  xok::hw::Nic nic(machine, 0xa);
  xok::hw::Disk disk(machine, 1024);
  kernel.AttachNic(&nic);
  kernel.AttachDisk(&disk);

  KvServerConfig config;
  config.iface = xok::exos::NetIface{0xa, 1, LoopResolve};
  config.port = kServerPort;
  config.workers = kServerCpus;
  config.use_rings = true;
  config.use_ash = w.ash;
  if (w.ash) {
    config.hot_keys = {LoadKeyName(0)};
    config.ash_peer_ip = 2;
    config.ash_peer_port = kClientPort;
  }
  config.journal_blocks = xok::exos::LibFs::kDefaultJournalBlocks;
  config.kv_cache_entries = w.value_cache;
  config.preload = xok::exos::server::MakePreload(kKeys, kValueBytes);
  config.stride_slices_per_cpu = 400;
  config.trace_requests = traced;
  KvServer server(kernel, config);
  if (!server.ok()) {
    run.error = "KvServer setup failed";
    return run;
  }

  WorkloadConfig workload;
  workload.seed = seed;
  workload.requests = w.requests;
  workload.keys = kKeys;
  workload.zipf_s = 1.1;
  workload.value_bytes = kValueBytes;
  workload.put_per_mille = w.put_per_mille;
  workload.window = w.window;
  workload.open_loop_interval_cycles = w.open_loop_interval;
  workload.retry_timeout_cycles = w.retry_timeout;
  workload.retry_backoff_cap_cycles = w.retry_backoff_cap;
  workload.retry_jitter = w.retry_jitter;
  workload.client_port = kClientPort;
  LoadGenTarget target;
  target.iface = xok::exos::NetIface{0xa, 2, LoopResolve};
  target.server_ip = 1;
  target.server_port = kServerPort;
  target.workers = kServerCpus;
  target.hot_key = LoadKeyName(0);

  EnvId client_id = xok::aegis::kNoEnv;
  Counters at_ready;
  uint64_t ready_cycle = 0;
  Process client(kernel, [&](Process& p) {
    WorkloadConfig warm = workload;
    warm.requests = 0;
    warm.quit_when_done = false;
    run.warm = RunLoadGen(p, target, warm);
    run.setup_s = HostSeconds() - t0;
    ready_cycle = machine.MaxCpuCycle();
    at_ready = ReadCounters(kernel, nic, disk, server, client_id);

    WorkloadConfig measured = workload;
    measured.warmup = false;
    measured.trace = traced;
    run.stats = RunLoadGen(p, target, measured);
  });
  if (!client.ok()) {
    run.error = "client env creation failed";
    return run;
  }
  client_id = client.id();
  kernel.Run();
  run.end_cycle = machine.MaxCpuCycle();
  run.measured_mcycles = static_cast<double>(run.end_cycle - ready_cycle) / 1e6;
  run.delta = Since(ReadCounters(kernel, nic, disk, server, client_id), at_ready);
  for (uint32_t s = 0; s < server.workers(); ++s) {
    const auto& ws = server.worker_stats(s);
    run.store.gets += ws.store.gets;
    run.store.puts += ws.store.puts;
    run.store.hits += ws.store.hits;
    run.store.misses += ws.store.misses;
    run.store.errors += ws.store.errors;
    run.trace_mark_failures += ws.trace_mark_failures;
  }

  // Correctness gate.
  const LoadStats& st = run.stats;
  auto fail = [&run](const std::string& why) {
    if (run.error.empty()) {
      run.error = why;
    }
  };
  if (run.warm.deadline_hit != 0 || run.warm.unexpected != 0) {
    fail("warm-up never saw every shard answer");
  }
  if (st.corrupt != 0) fail("corrupt replies: " + std::to_string(st.corrupt));
  if (st.unexpected != 0) fail("unexpected replies: " + std::to_string(st.unexpected));
  if (st.gave_up != 0) fail("requests abandoned: " + std::to_string(st.gave_up));
  if (st.ttl_abandoned != 0) fail("requests past TTL: " + std::to_string(st.ttl_abandoned));
  if (st.deadline_hit != 0) fail("run deadline hit");
  if (st.latency.count != w.requests) {
    fail("data requests acked " + std::to_string(st.latency.count) + " of " +
         std::to_string(w.requests));
  }
  if (!server.AllWorkersDone()) fail("a worker did not exit after QUIT");
  if (run.store.errors != 0) fail("store errors: " + std::to_string(run.store.errors));
  if (traced && run.trace_mark_failures != 0) fail("trace marks failed");
  const Aegis::AuditReport audit = kernel.AuditInvariants();
  if (!audit.ok()) fail("audit: " + audit.violations.front());
  return run;
}

// Data requests acked per simulated second of the measured phase. Counts
// data acks (latency samples), not LoadStats::acked, which also holds the
// one QUIT ack per shard.
double SimRps(const LoadStats& st) {
  return Ratio(static_cast<double>(st.latency.count) * static_cast<double>(xok::hw::kClockHz),
               static_cast<double>(st.elapsed_cycles));
}

// Simulated end-to-end values of an untraced run plus every counter-based
// per-layer metric; the traced run adds the span-based ones.
Metrics KvCounterMetrics(const KvRun& r) {
  const LoadStats& st = r.stats;
  const Counters& d = r.delta;
  const uint64_t acked = st.latency.count;  // Data acks only.
  const uint64_t puts = st.created_201;
  auto per = [&d](Counter c, uint64_t base) {
    return Ratio(static_cast<double>(d[c]), static_cast<double>(base));
  };
  Metrics m;
  m["sim_rps"] = SimRps(st);
  m["loadgen.latency_p50_us"] = Us(st.latency.p50);
  m["loadgen.latency_p99_us"] = TailSupported(st.latency.count, 990) ? Us(st.latency.p99) : 0.0;
  m["hw.nic_frames_per_req"] = per(kNicTx, acked);
  m["hw.nic_tx_stall_cycles_per_req"] = per(kNicStallCycles, acked);
  m["hw.disk_barriers_per_put"] = per(kDiskBarriers, puts);
  m["hw.disk_blocks_durable_per_put"] = per(kDiskDurable, puts);
  m["core.syscalls_per_req"] = per(kSyscalls, acked);
  m["core.sleeps_per_req"] = per(kSleeps, acked);
  m["core.blocks_per_req"] = per(kBlocks, acked);
  m["core.server_cycles_per_req"] = per(kServerCycles, acked);
  m["core.migrations_per_req"] = per(kMigrations, acked);
  m["core.tx_ring_cycles_mean"] = per(kTxRingCycles, d[kTxRingCalls]);
  m["core.disk_barrier_cycles_mean"] = per(kBarrierCycles, d[kBarrierCalls]);
  m["ash.hit_frac"] = per(kAshHits, acked - puts);
  m["ash.hot_p50_us"] = Us(st.hot_latency.p50);
  m["server.reqs_per_batch"] = per(kWorkerRequests, d[kWorkerBatches]);
  m["server.syncs_per_put"] = per(kWorkerSyncs, puts);
  m["store.cache_hit_frac"] = Ratio(static_cast<double>(r.store.hits),
                                    static_cast<double>(r.store.hits + r.store.misses));
  m["store.disk_ios_per_req"] = per(kDiskIos, acked);
  m["loadgen.cycles_per_req"] = per(kClientCycles, acked);
  m["loadgen.sleeps_per_req"] = per(kClientSleeps, acked);
  m["loadgen.retries_per_req"] =
      Ratio(static_cast<double>(st.retries), static_cast<double>(st.sent));
  m["loadgen.warmup_ms"] = Us(r.warm.warmup_cycles) / 1000.0;
  return m;
}

double SpanUs(const LoadStats& st, Span s, uint32_t per_mille) {
  const LatencySummary& sum = st.reqs.span[static_cast<uint32_t>(s)];
  if (per_mille == 500) {
    return Us(sum.p50);
  }
  return TailSupported(sum.count, per_mille) ? Us(sum.p99) : 0.0;
}

Metrics KvTraceMetrics(const KvWorkload& w, const KvRun& untraced, const KvRun& traced) {
  const LoadStats& t = traced.stats;
  Metrics m;
  const double paths =
      static_cast<double>(t.stages.path_ring + t.stages.path_ash + t.stages.path_queue);
  m["dpf.path_ring_frac"] = Ratio(static_cast<double>(t.stages.path_ring), paths);
  m["dpf.path_ash_frac"] = Ratio(static_cast<double>(t.stages.path_ash), paths);
  m["dpf.path_queue_frac"] = Ratio(static_cast<double>(t.stages.path_queue), paths);
  m["dpf.wire_p50_us"] = SpanUs(t, Span::kWire, 500);
  m["pktring.ring_wait_p50_us"] = SpanUs(t, Span::kRingWait, 500);
  m["pktring.ring_wait_p99_us"] = SpanUs(t, Span::kRingWait, 990);
  m["server.parse_p50_us"] = SpanUs(t, Span::kParse, 500);
  m["server.tx_p50_us"] = SpanUs(t, Span::kTx, 500);
  m["server.service_p50_us"] = Us(t.stages.service.p50);
  m["store.store_p50_us"] = SpanUs(t, Span::kStore, 500);
  m["store.store_p99_us"] = SpanUs(t, Span::kStore, 990);
  m["loadgen.ack_p50_us"] = SpanUs(t, Span::kAck, 500);
  if (w.open_loop_interval > 0) {
    std::vector<std::pair<uint32_t, uint64_t>> sends;
    for (const xok::xtrace::Record& rec : t.trace_records) {
      if (rec.type == static_cast<uint16_t>(xok::xtrace::Event::kAppMark) &&
          rec.arg1 == xok::exos::reqtrace::kPhaseClientSend) {
        sends.emplace_back(rec.arg0, rec.cycle);
      }
    }
    std::vector<uint64_t> late = OpenLoopLateness(std::move(sends), w.open_loop_interval);
    std::sort(late.begin(), late.end());
    m["loadgen.late_p99_us"] = TailSupported(late.size(), 990)
                                   ? Us(xok::exos::reqtrace::Percentile(late, 990))
                                   : 0.0;
  }
  m["trace.overhead_frac"] = 1.0 - Ratio(SimRps(t), SimRps(untraced.stats));
  m["trace.covered_frac"] =
      Ratio(static_cast<double>(t.reqs.covered.p50), static_cast<double>(t.latency.p50));
  return m;
}

Experiment RunKvExperiment(const KvWorkload& w, uint64_t seed, bool trace_mode) {
  Experiment e;
  const double t0 = HostSeconds();
  const KvRun run = RunKvStack(w, seed, /*traced=*/false, t0);
  e.host_s = HostSeconds() - t0;
  e.error = run.error;
  e.attempted = w.requests;
  const uint64_t wrong = run.stats.corrupt + run.stats.unexpected;
  e.answered_ok = run.stats.latency.count - std::min(run.stats.latency.count, wrong);
  e.setup_s = run.setup_s;
  e.measured_mcycles = run.measured_mcycles;
  e.sim = KvCounterMetrics(run);
  e.sim["end_cycle"] = static_cast<double>(run.end_cycle);
  if (trace_mode && e.error.empty()) {
    const KvRun traced = RunKvStack(w, seed, /*traced=*/true, HostSeconds());
    if (!traced.error.empty()) {
      e.error = "traced run: " + traced.error;
    }
    for (const auto& [name, value] : KvTraceMetrics(w, run, traced)) {
      e.sim[name] = value;
    }
  }
  return e;
}

// --- rack-4: RunRack end to end ---

std::string RackError(const RackResult& r, uint64_t expected_acks) {
  if (!r.ok) return "rack: " + r.error;
  if (!r.audits_ok) return "rack audit: " + r.audit_error;
  if (r.corrupt != 0) return "rack corrupt replies: " + std::to_string(r.corrupt);
  if (r.gave_up != 0) return "rack requests abandoned: " + std::to_string(r.gave_up);
  if (r.acked != expected_acks) {
    return "rack acked " + std::to_string(r.acked) + " of " + std::to_string(expected_acks);
  }
  return "";
}

Experiment RunRackExperiment(uint64_t seed, bool trace_mode) {
  Experiment e;
  // Set-up: the same rack with no requests — construction, boot, readiness
  // probes, drain and teardown.
  const double s0 = HostSeconds();
  const RackResult setup = RunRack(RackSpec(seed, 0, false));
  e.setup_s = HostSeconds() - s0;
  e.error = RackError(setup, 0);

  const RackConfig config = RackSpec(seed, kRackRequestsPerLane, false);
  const uint64_t expected = static_cast<uint64_t>(config.lanes) * config.requests_per_lane;
  const double t0 = HostSeconds();
  const RackResult r = RunRack(config);
  e.host_s = HostSeconds() - t0;
  if (e.error.empty()) {
    e.error = RackError(r, expected);
  }
  e.attempted = expected;
  e.answered_ok = r.acked - std::min(r.acked, r.corrupt);
  e.measured_mcycles = static_cast<double>(r.elapsed_cycles) / 1e6;

  uint64_t busiest = 0;
  for (const uint64_t a : r.acked_by_server) {
    busiest = std::max(busiest, a);
  }
  e.sim["sim_rps"] = r.aggregate_rps;
  e.fingerprint = r.fingerprint;
  e.sim["rdp.retransmits_per_req"] =
      Ratio(static_cast<double>(r.retransmissions), static_cast<double>(r.acked));
  e.sim["rack.busiest_over_ideal"] =
      Ratio(static_cast<double>(busiest),
            static_cast<double>(r.acked) / static_cast<double>(config.server_machines));
  e.sim["rack.resteered"] = static_cast<double>(r.resteered);
  if (trace_mode && e.error.empty()) {
    const RackResult traced = RunRack(RackSpec(seed, kRackRequestsPerLane, true));
    const std::string err = RackError(traced, expected);
    if (!err.empty()) {
      e.error = "traced run: " + err;
    }
    e.sim["trace.overhead_frac"] = 1.0 - Ratio(traced.aggregate_rps, r.aggregate_rps);
  }
  return e;
}

// --- Metric catalogue ---

struct MetricDef {
  const char* name;
  const char* unit;
  const char* clock = "simulated";
};

// End-to-end metrics, measured with tracing off on every workload.
constexpr MetricDef kEndToEnd[] = {
    {"sim_rps", "req/s", "simulated"},
    {"host_s", "s", "host"},
    {"setup_s", "s", "host"},
    {"peak_rss_mb", "MB", "host"},
};

// Per-layer metrics (--trace 1). A metric whose layer the workload does not
// exercise, or cannot expose from outside, reads 0 (see NOTES.md).
constexpr MetricDef kPerLayer[] = {
    {"hw.nic_frames_per_req", "frames/req"},
    {"hw.nic_tx_stall_cycles_per_req", "cycles/req"},
    {"hw.disk_barriers_per_put", "barriers/put"},
    {"hw.disk_blocks_durable_per_put", "blocks/put"},
    {"core.syscalls_per_req", "calls/req"},
    {"core.sleeps_per_req", "calls/req"},
    {"core.blocks_per_req", "calls/req"},
    {"core.server_cycles_per_req", "cycles/req"},
    {"core.migrations_per_req", "count/req"},
    {"core.tx_ring_cycles_mean", "cycles"},
    {"core.disk_barrier_cycles_mean", "cycles"},
    {"dpf.path_ring_frac", "ratio"},
    {"dpf.path_ash_frac", "ratio"},
    {"dpf.path_queue_frac", "ratio"},
    {"dpf.wire_p50_us", "us"},
    {"pktring.ring_wait_p50_us", "us"},
    {"pktring.ring_wait_p99_us", "us"},
    {"ash.hit_frac", "ratio"},
    {"ash.hot_p50_us", "us"},
    {"server.reqs_per_batch", "req/batch"},
    {"server.parse_p50_us", "us"},
    {"server.tx_p50_us", "us"},
    {"server.service_p50_us", "us"},
    {"server.syncs_per_put", "syncs/put"},
    {"store.cache_hit_frac", "ratio"},
    {"store.disk_ios_per_req", "ios/req"},
    {"store.store_p50_us", "us"},
    {"store.store_p99_us", "us"},
    {"loadgen.latency_p50_us", "us"},
    {"loadgen.latency_p99_us", "us"},
    {"loadgen.cycles_per_req", "cycles/req"},
    {"loadgen.sleeps_per_req", "calls/req"},
    {"loadgen.ack_p50_us", "us"},
    {"loadgen.retries_per_req", "ratio"},
    {"loadgen.warmup_ms", "ms"},
    {"loadgen.late_p99_us", "us"},
    {"rdp.retransmits_per_req", "count/req"},
    {"rack.busiest_over_ideal", "ratio"},
    {"rack.resteered", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.covered_frac", "ratio"},
};

// --- Driver ---

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool determinism = false;
};

struct WorkloadDef {
  const char* name;
  uint32_t sub_seeds;  // K: distinct experiments behind every simulated median.
  std::function<Experiment(uint64_t, bool)> run;
};

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"kv-get", 32, [](uint64_t s, bool t) { return RunKvExperiment(kKvGet, s, t); }},
      {"kv-put-open", 16, [](uint64_t s, bool t) { return RunKvExperiment(kKvPutOpen, s, t); }},
      {"rack-4", 32, [](uint64_t s, bool t) { return RunRackExperiment(s, t); }},
  };
  return defs;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<std::pair<const MetricDef*, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first->name, metrics[i].second, metrics[i].first->unit);
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload kv-get|kv-put-open|rack-4 --seed N "
               "--seconds S --trace 0|1 [--determinism]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--determinism") {
      args.determinism = true;
    } else {
      return Usage();
    }
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : Workloads()) {
    if (args.workload == d.name) {
      def = &d;
    }
  }
  if (def == nullptr) {
    return Usage();
  }

  const uint32_t k = def->sub_seeds;
  std::vector<uint64_t> sub_seeds;
  xok::SplitMix64 mix(args.seed);
  for (uint32_t i = 0; i < k; ++i) {
    sub_seeds.push_back(mix.Next());
  }

  // At least one pass over the K sub-seeds, then whole passes or single
  // experiments until the time is spent; --determinism makes exactly two.
  std::vector<Experiment> first(k);
  std::vector<double> host_s, setup_s, mcps;
  uint64_t attempted = 0;
  uint64_t answered_ok = 0;
  uint32_t repeats_checked = 0;
  std::string error;
  const Clock::time_point start = Clock::now();
  for (uint32_t i = 0;; ++i) {
    if (args.determinism ? i >= 2 * k : (i >= k && SecondsSince(start) >= args.seconds)) {
      break;
    }
    const uint32_t slot = i % k;
    Experiment e = def->run(sub_seeds[slot], args.trace);
    attempted += e.attempted;
    answered_ok += std::min(e.answered_ok, e.attempted);
    if (!e.error.empty()) {
      error = "sub-seed " + std::to_string(slot) + ": " + e.error;
      break;
    }
    host_s.push_back(e.host_s);
    setup_s.push_back(e.setup_s);
    mcps.push_back(Ratio(e.measured_mcycles, e.host_s));
    if (i < k) {
      first[slot] = std::move(e);
    } else {
      ++repeats_checked;
      if (e.sim != first[slot].sim || e.fingerprint != first[slot].fingerprint) {
        error = "nondeterministic: a repeat of sub-seed " + std::to_string(slot) +
                " simulated differently";
        break;
      }
    }
  }
  const double elapsed = SecondsSince(start);
  if (!error.empty()) {
    std::printf("perfbench %s seed=%llu: FAILED: %s\n", def->name,
                static_cast<unsigned long long>(args.seed), error.c_str());
    PrintResult(false, attempted, attempted - answered_ok, {});
    return 1;
  }

  auto sim_median = [&](const std::string& name) {
    std::vector<double> values;
    for (const Experiment& e : first) {
      auto it = e.sim.find(name);
      values.push_back(it == e.sim.end() ? 0.0 : it->second);
    }
    return Median(std::move(values));
  };

  std::printf("perfbench %s seed=%llu trace=%d: %zu experiments over %u sub-seeds in %.1f s "
              "(%u repeats matched exactly)\n",
              def->name, static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              host_s.size(), k, elapsed, repeats_checked);
  std::vector<std::pair<const MetricDef*, double>> result;
  if (!args.trace) {
    const std::map<std::string, double> values = {
        {"sim_rps", sim_median("sim_rps")},
        {"host_s", Quantile(host_s, kFastPerMille)},
        {"setup_s", Quantile(setup_s, kFastPerMille)},
        {"peak_rss_mb", PeakRssMb()},
    };
    for (const MetricDef& m : kEndToEnd) {
      result.emplace_back(&m, values.at(m.name));
    }
    // Shown but not gated: rack-4 cannot report per-request latency, a clean
    // run has no failures to measure, and simulation speed is host_s seen
    // per simulated cycle (gating it would count the host's noise twice).
    const bool has_latency = first.front().sim.count("loadgen.latency_p50_us") > 0;
    std::printf("  %-30s %14s  %s\n", "metric", "value", "unit (clock)");
    for (const auto& [metric, value] : result) {
      std::printf("  %-30s %14.4f  %s (%s)\n", metric->name, value, metric->unit, metric->clock);
    }
    if (has_latency) {
      std::printf("  %-30s %14.4f  us (simulated, not gated)\n", "sim_p50_us",
                  sim_median("loadgen.latency_p50_us"));
      std::printf("  %-30s %14.4f  us (simulated, not gated)\n", "sim_p99_us",
                  sim_median("loadgen.latency_p99_us"));
    } else {
      std::printf("  %-30s %14s  us (RunRack exposes no per-request latency)\n",
                  "sim_p50_us/sim_p99_us", "n/a");
    }
    std::printf("  %-30s %14.4f  ratio (failed / attempted)\n", "fail_frac",
                FailFrac(attempted, answered_ok));
    std::printf("  %-30s %14.4f  Mcycles/s (both, not gated)\n", "sim_mcps",
                Quantile(mcps, 1000 - kFastPerMille));
  } else {
    std::printf("  %-34s %14s  %s\n", "per-layer metric", "value", "unit");
    for (const MetricDef& m : kPerLayer) {
      const bool measured = first.front().sim.count(m.name) > 0;
      const double v = measured ? sim_median(m.name) : 0.0;
      result.emplace_back(&m, v);
      if (measured) {
        std::printf("  %-34s %14.4f  %s\n", m.name, v, m.unit);
      } else {
        std::printf("  %-34s %14s  %s\n", m.name, "n/a", m.unit);
      }
    }
  }
  PrintResult(true, attempted, attempted - answered_ok, result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
