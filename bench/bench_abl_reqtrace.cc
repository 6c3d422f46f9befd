// Per-request critical-path attribution on the e2e server workload: the
// observability ablation. One seeded HTTP/KV run is served twice —
// tracing disarmed (the baseline every other bench measures) and armed
// (kernel ring bound, demux tags, worker stage marks, client send/ack
// marks) — and the armed run's records are joined by src/exos/reqtrace
// into per-request span timelines: wire -> ring-wait -> parse -> store ->
// tx -> ack.
//
// Two printed contracts gate CI (non-zero exit on violation):
//   * armed overhead <= 10% of disarmed throughput — watching the system
//     must not change what you are watching by more than the PR 4 bound;
//   * attribution >= 90% of measured first-send->ack latency at p50 — the
//     stage spans must actually account for where the time went, not just
//     decorate it. (By construction complete timelines telescope to
//     exactly ack - send; the slack is requests whose timelines lost a
//     boundary plus the mark syscalls at either end.)
//
// The disarmed run IS the seed configuration byte for byte: tracing off
// means no ring exists, the kernel's Trace() hook is one nullptr branch,
// and SysTraceMark is never called — so the disarmed table here matches
// bench_e2e_server's PUT-mix numbers by construction, not by luck.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/exos/reqtrace.h"
#include "src/exos/server/loadgen.h"
#include "src/exos/server/server.h"
#include "src/hw/disk.h"
#include "src/net/wire.h"

namespace xok::bench {
namespace {

using exos::reqtrace::Class;
using exos::reqtrace::Collector;
using exos::reqtrace::RequestTimeline;
using exos::reqtrace::Span;
using exos::server::KvServer;
using exos::server::KvServerConfig;
using exos::server::LatencySummary;
using exos::server::LoadGenTarget;
using exos::server::LoadKeyName;
using exos::server::LoadStats;
using exos::server::MakePreload;
using exos::server::SummarizeLatencies;
using exos::server::WorkloadConfig;

constexpr uint32_t kRequests = 400;
constexpr uint32_t kKeys = 16;
constexpr uint32_t kValueBytes = 64;
constexpr uint64_t kSeed = 7;
constexpr uint16_t kServerPort = 7080;
constexpr uint16_t kClientPort = 7999;
constexpr uint32_t kWindow = 4;
constexpr uint32_t kPutPerMille = 200;  // Journal + disk spans need PUTs.
// SLO budget: 1 ms simulated. GETs clear it comfortably; PUTs that eat a
// journal sync (10 ms disk access) miss it — so good and late are both
// populated and the late-attribution table has something to explain.
constexpr uint64_t kSloCycles = 25'000;

uint64_t LoopResolve(uint32_t) { return 0xa; }

struct RunOut {
  LoadStats stats;
  uint64_t trace_mark_failures = 0;
};

RunOut Run(bool armed) {
  hw::Machine machine(
      hw::Machine::Config{.phys_pages = 4096, .name = "reqtrace", .cpus = 2});
  aegis::Aegis kernel(machine, aegis::Aegis::Config{.max_envs = 200});
  hw::Nic nic(machine, 0xa);
  hw::Disk disk(machine, 1024);
  kernel.AttachNic(&nic);
  kernel.AttachDisk(&disk);

  KvServerConfig config;
  config.iface = exos::NetIface{0xa, 1, LoopResolve};
  config.port = kServerPort;
  config.workers = 2;
  config.use_rings = true;
  config.use_ash = true;
  config.hot_keys = {LoadKeyName(0)};
  config.ash_peer_ip = 2;
  config.ash_peer_port = kClientPort;
  config.journal_blocks = exos::LibFs::kDefaultJournalBlocks;
  config.preload = MakePreload(kKeys, kValueBytes);
  config.stride_slices_per_cpu = 400;
  config.trace_requests = armed;
  KvServer server(kernel, config);
  if (!server.ok()) {
    std::abort();
  }

  WorkloadConfig workload;
  workload.seed = kSeed;
  workload.requests = kRequests;
  workload.keys = kKeys;
  workload.value_bytes = kValueBytes;
  workload.put_per_mille = kPutPerMille;
  workload.window = kWindow;
  workload.client_port = kClientPort;
  workload.trace = armed;
  workload.slo_cycles = kSloCycles;
  LoadGenTarget target;
  target.iface = exos::NetIface{0xa, 2, LoopResolve};
  target.server_ip = 1;
  target.server_port = config.port;
  target.workers = config.workers;
  target.hot_key = LoadKeyName(0);

  RunOut out;
  exos::Process client(kernel, [&](exos::Process& p) {
    out.stats = RunLoadGen(p, target, workload);
  });
  if (!client.ok()) {
    std::abort();
  }
  kernel.Run();

  if (out.stats.gave_up != 0 || out.stats.corrupt != 0 ||
      out.stats.deadline_hit != 0) {
    std::fprintf(stderr,
                 "reqtrace run unhealthy: gave_up=%llu corrupt=%llu deadline=%llu\n",
                 static_cast<unsigned long long>(out.stats.gave_up),
                 static_cast<unsigned long long>(out.stats.corrupt),
                 static_cast<unsigned long long>(out.stats.deadline_hit));
    std::abort();
  }
  for (uint32_t shard = 0; shard < config.workers; ++shard) {
    out.trace_mark_failures += server.worker_stats(shard).trace_mark_failures;
  }
  return out;
}

std::string FmtCount(uint64_t n) { return std::to_string(n); }

std::string FmtP(const LatencySummary& s, uint64_t LatencySummary::* field) {
  if (s.count == 0) {
    return "-";
  }
  if (s.samples_insufficient &&
      (field == &LatencySummary::p99 || field == &LatencySummary::p999)) {
    return "(n<100)";
  }
  return FmtUs(Us(s.*field));
}

void PrintPaperTables() {
  const RunOut disarmed = Run(/*armed=*/false);
  const RunOut armed = Run(/*armed=*/true);
  const LoadStats& off = disarmed.stats;
  const LoadStats& on = armed.stats;

  // --- Headline: what did watching cost? ---
  Table head("Per-request tracing on the e2e server workload (2 CPUs, 20% PUT, "
             "journal on)",
             {"tracing", "RPS", "p50", "p99", "acked", "timelines", "mark-fails"});
  head.AddRow({"disarmed", std::to_string(static_cast<uint64_t>(off.Rps())),
               FmtP(off.latency, &LatencySummary::p50),
               FmtP(off.latency, &LatencySummary::p99), FmtCount(off.acked), "-",
               FmtCount(disarmed.trace_mark_failures)});
  head.AddRow({"armed", std::to_string(static_cast<uint64_t>(on.Rps())),
               FmtP(on.latency, &LatencySummary::p50),
               FmtP(on.latency, &LatencySummary::p99), FmtCount(on.acked),
               FmtCount(on.reqs.timelines), FmtCount(armed.trace_mark_failures)});
  head.Print();

  // --- Per-stage breakdown (all requests) ---
  Table stage("Critical-path stage latency, armed run (all requests)",
              {"stage", "n", "p50", "p99", "p999", "max"});
  for (uint32_t s = 0; s < exos::reqtrace::kSpanCount; ++s) {
    const LatencySummary& sum = on.reqs.span[s];
    stage.AddRow({exos::reqtrace::SpanName(static_cast<Span>(s)),
                  FmtCount(sum.count), FmtP(sum, &LatencySummary::p50),
                  FmtP(sum, &LatencySummary::p99),
                  FmtP(sum, &LatencySummary::p999), FmtP(sum, &LatencySummary::max)});
  }
  stage.AddRow({"covered (sum)", FmtCount(on.reqs.covered.count),
                FmtP(on.reqs.covered, &LatencySummary::p50),
                FmtP(on.reqs.covered, &LatencySummary::p99),
                FmtP(on.reqs.covered, &LatencySummary::p999),
                FmtP(on.reqs.covered, &LatencySummary::max)});
  stage.AddRow({"send->ack (measured)", FmtCount(on.latency.count),
                FmtP(on.latency, &LatencySummary::p50),
                FmtP(on.latency, &LatencySummary::p99),
                FmtP(on.latency, &LatencySummary::p999),
                FmtP(on.latency, &LatencySummary::max)});
  stage.Print();

  // --- Per-class breakdown: same records, sliced by request class ---
  Collector collector;
  collector.AddAll(on.trace_records);
  Table cls("Stage p50 by request class (cycles joined per class)",
            {"class", "n", "covered p50", "ring-wait p50", "store p50", "tx p50"});
  for (uint32_t c = 0; c < exos::reqtrace::kClassCount; ++c) {
    const Class cl = static_cast<Class>(c);
    if (collector.completed(cl) == 0) {
      continue;
    }
    auto p50_of = [&](Span s) {
      std::vector<uint64_t> v = collector.samples(cl, s);
      if (v.empty()) {
        return std::string("-");
      }
      std::sort(v.begin(), v.end());
      return FmtUs(Us(exos::reqtrace::Percentile(v, 500)));
    };
    std::vector<uint64_t> cov = collector.covered(cl);
    std::sort(cov.begin(), cov.end());
    cls.AddRow({exos::reqtrace::ClassName(cl),
                FmtCount(collector.completed(cl)),
                FmtUs(Us(exos::reqtrace::Percentile(cov, 500))),
                p50_of(Span::kRingWait), p50_of(Span::kStore), p50_of(Span::kTx)});
  }
  cls.Print();

  // --- SLO accounting + late attribution ---
  Table slo("SLO accounting (budget 1000 us first-send->ack)",
            {"bucket", "requests", "store p99 (late only)", "ring-wait p99 (late only)"});
  const LatencySummary& late_store =
      on.slo.late_span[static_cast<uint32_t>(Span::kStore)];
  const LatencySummary& late_rwait =
      on.slo.late_span[static_cast<uint32_t>(Span::kRingWait)];
  slo.AddRow({"good", FmtCount(on.slo.good), "-", "-"});
  slo.AddRow({"late", FmtCount(on.slo.late), FmtP(late_store, &LatencySummary::p99),
              FmtP(late_rwait, &LatencySummary::p99)});
  slo.AddRow({"shed", FmtCount(on.slo.shed), "-", "-"});
  slo.Print();

  // --- Flight recorder: the slowest complete request, span by span ---
  const RequestTimeline* slowest = nullptr;
  for (const RequestTimeline& t : collector.all()) {
    if (slowest == nullptr || t.Total() > slowest->Total()) {
      slowest = &t;
    }
  }
  if (slowest != nullptr) {
    std::printf("Slowest request's critical path:\n%s",
                exos::reqtrace::FormatTimeline(*slowest).c_str());
  }

  // --- Contracts ---
  const double overhead_pct =
      off.Rps() > 0.0 ? (off.Rps() - on.Rps()) * 100.0 / off.Rps() : 100.0;
  const double attribution_pct =
      on.latency.p50 > 0
          ? static_cast<double>(on.reqs.covered.p50) * 100.0 /
                static_cast<double>(on.latency.p50)
          : 0.0;
  std::printf("Armed overhead: %.1f%% of disarmed RPS (contract: <= 10%%) — %s\n",
              overhead_pct, overhead_pct <= 10.0 ? "contract holds" : "VIOLATION");
  std::printf(
      "Attribution: stage spans cover %.1f%% of measured send->ack p50 "
      "(contract: >= 90%%) — %s\n",
      attribution_pct, attribution_pct >= 90.0 ? "contract holds" : "VIOLATION");
  std::printf("Trace-mark failures: %llu (contract: 0)\n",
              static_cast<unsigned long long>(armed.trace_mark_failures));
  if (overhead_pct > 10.0 || attribution_pct < 90.0 ||
      armed.trace_mark_failures != 0) {
    std::fprintf(stderr, "reqtrace contract violated\n");
    std::abort();
  }
}

void BM_ReqtraceArmed(benchmark::State& state) {
  RunOut out;
  for (auto _ : state) {
    out = Run(/*armed=*/true);
  }
  state.counters["rps"] = out.stats.Rps();
  state.counters["p50_us"] = Us(out.stats.latency.p50);
  state.counters["covered_p50_us"] = Us(out.stats.reqs.covered.p50);
  state.counters["timelines"] = static_cast<double>(out.stats.reqs.timelines);
  state.counters["slo_good"] = static_cast<double>(out.stats.slo.good);
  state.counters["slo_late"] = static_cast<double>(out.stats.slo.late);
  state.counters["disk_ios"] = static_cast<double>(out.stats.reqs.disk_ios);
  state.counters["wire_p50_us"] =
      Us(out.stats.reqs.span[static_cast<uint32_t>(Span::kWire)].p50);
  state.counters["ringwait_p50_us"] =
      Us(out.stats.reqs.span[static_cast<uint32_t>(Span::kRingWait)].p50);
  state.counters["store_p50_us"] =
      Us(out.stats.reqs.span[static_cast<uint32_t>(Span::kStore)].p50);
}
BENCHMARK(BM_ReqtraceArmed)->Unit(benchmark::kMillisecond);

void BM_ReqtraceDisarmed(benchmark::State& state) {
  RunOut out;
  for (auto _ : state) {
    out = Run(/*armed=*/false);
  }
  state.counters["rps"] = out.stats.Rps();
  state.counters["p50_us"] = Us(out.stats.latency.p50);
}
BENCHMARK(BM_ReqtraceDisarmed)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xok::bench

XOK_BENCH_MAIN(xok::bench::PrintPaperTables)
