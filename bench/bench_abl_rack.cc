// Ablation: rack scaling — aggregate HTTP/KV throughput as server
// machines are added behind one wire, all under a single World (the
// unified event loop is what lets SMP machines co-simulate like this at
// all). One client machine runs 6 closed-loop lanes; each lane steers
// every request by consistent hashing over the key to one of N server
// machines (2 CPUs / 2 workers each), sending httpkv straight to that
// machine's worker shard filters (src/exos/server/rack.h). The "re-sends"
// column counts data requests sent again (503 back-off or re-steer); a
// lossless healthy rack sends each request once. The workload is write-heavy
// (50% PUTs against journaled per-worker stores, 10 ms per disk
// access), so each server machine's disk is the natural bottleneck and
// adding machines must add throughput.
//
// Each arm runs kScalingSeeds seeds (kSeed, kSeed+1, ...) and reports the
// pooled rate: every acked request over the summed measured time. One
// 180-request run ends when its slowest lane does, so a single seed's rate
// swings with which lane's GETs happen to queue behind a 10 ms journal
// write (the 4-machine speedup ranges 2.3x-4.3x across seeds); pooling
// measures the rack rather than that luck.
//
// Contracts (nonzero exit on violation):
//   * scaling floor: 4 machines >= 2.5x the 1-machine pooled rate
//     (sub-linear is expected — consistent hashing balances keys, not
//     perfectly — but a rack that doesn't scale is a regression);
//   * every arm serves every request: corrupt == gave_up == 0, audits
//     clean on all kernels.
//
// The power-cut arm kills one of four server machines mid-measurement:
// lanes must detect the silence (no reply within the 250 ms reply bound),
// re-steer the dead arc to ring successors and keep serving; the
// victim's platter image must reboot into Fsck-clean journaled stores.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/exos/server/rack.h"

namespace xok::bench {
namespace {

using exos::server::RackConfig;
using exos::server::RackResult;
using exos::server::RunRack;

constexpr uint64_t kSeed = 17;
constexpr uint32_t kScalingSeeds = 8;

RackConfig ScalingConfig(uint32_t servers, uint64_t seed = kSeed) {
  RackConfig config;
  config.server_machines = servers;
  config.cpus_per_server = 2;
  config.lanes = 6;
  config.requests_per_lane = 30;
  // Key mass is kept small so the preload (10 ms/disk access per PUT on
  // every machine) stays well inside the warmup budget; 16 keys over 16
  // vnodes still split 8/8 at n=2 and 5/1/5/5 at n=4 — enough spread for
  // the scaling contract with a real imbalance term in busiest/ideal.
  config.keys = 16;
  config.vnodes = 16;
  config.value_bytes = 64;
  config.put_per_mille = 500;  // Write-heavy: the disk is the bottleneck.
  config.seed = seed;
  return config;
}

RackConfig PowerCutConfig() {
  RackConfig config;
  config.server_machines = 4;
  config.cpus_per_server = 2;
  config.lanes = 6;
  config.requests_per_lane = 150;
  config.keys = 16;    // Small preload: warmup ends ~1.4 simulated s in.
  config.vnodes = 32;  // The victim owns half the keys: a real failover.
  config.value_bytes = 64;
  config.put_per_mille = 250;
  config.seed = kSeed;
  config.power_cut_server = 1;
  config.power_cut_cycle = 2 * hw::kClockHz;  // Mid-measured-phase.
  return config;
}

RackResult MustRun(const RackConfig& config, const char* what) {
  RackResult r = RunRack(config);
  if (!r.ok) {
    std::fprintf(stderr, "rack %s arm failed: %s\n", what, r.error.c_str());
    std::abort();
  }
  return r;
}

// One arm's seeds pooled: counts summed, rate = acked / summed time.
struct Arm {
  uint32_t servers = 0;
  uint64_t acked = 0;
  uint64_t corrupt = 0;
  uint64_t gave_up = 0;
  uint64_t resteered = 0;
  uint64_t retransmissions = 0;
  uint64_t elapsed_cycles = 0;
  std::vector<uint64_t> acked_by_server;
  std::vector<double> seed_rps;
  bool audits_ok = true;
  std::string audit_error;

  double rps() const {
    return static_cast<double>(acked) * hw::kClockHz /
           static_cast<double>(std::max<uint64_t>(elapsed_cycles, 1));
  }
};

Arm RunArm(uint32_t servers) {
  Arm arm;
  arm.servers = servers;
  arm.acked_by_server.assign(servers, 0);
  for (uint32_t i = 0; i < kScalingSeeds; ++i) {
    const RackResult r = MustRun(ScalingConfig(servers, kSeed + i), "scaling");
    arm.acked += r.acked;
    arm.corrupt += r.corrupt;
    arm.gave_up += r.gave_up;
    arm.resteered += r.resteered;
    arm.retransmissions += r.retransmissions;
    arm.elapsed_cycles += r.elapsed_cycles;
    for (uint32_t s = 0; s < servers; ++s) {
      arm.acked_by_server[s] += r.acked_by_server[s];
    }
    arm.seed_rps.push_back(r.aggregate_rps);
    if (!r.audits_ok && arm.audits_ok) {
      arm.audits_ok = false;
      arm.audit_error = r.audit_error;
    }
  }
  return arm;
}

void PrintPaperTables() {
  std::vector<Arm> arms;
  for (const uint32_t servers : {1u, 2u, 4u}) {
    arms.push_back(RunArm(servers));
  }
  const Arm& one = arms.front();
  const double base = one.rps();

  Table table(
      "Ablation: rack scaling — aggregate closed-loop HTTP/KV throughput "
      "(6 lanes, 50% PUT, journaled stores; " +
          std::to_string(kScalingSeeds) + " seeds pooled)",
      {"server machines", "CPUs total", "aggregate r/s", "speedup", "acked",
       "resteered", "re-sends", "busiest/ideal"});
  for (const Arm& arm : arms) {
    uint64_t busiest = 0;
    for (const uint64_t a : arm.acked_by_server) {
      busiest = std::max(busiest, a);
    }
    const double ideal =
        static_cast<double>(arm.acked) / arm.acked_by_server.size();
    table.AddRow({std::to_string(arm.servers),
                  std::to_string(arm.servers * 2), FmtUs(arm.rps()),
                  FmtX(arm.rps() / base), std::to_string(arm.acked),
                  std::to_string(arm.resteered),
                  std::to_string(arm.retransmissions),
                  FmtX(static_cast<double>(busiest) / ideal)});
  }
  table.Print();

  bool healthy = true;
  for (const Arm& arm : arms) {
    if (arm.corrupt != 0 || arm.gave_up != 0 || !arm.audits_ok) {
      std::fprintf(stderr,
                   "rack %u-machine arm unhealthy: corrupt=%llu gave_up=%llu "
                   "audits=%s\n",
                   arm.servers, static_cast<unsigned long long>(arm.corrupt),
                   static_cast<unsigned long long>(arm.gave_up),
                   arm.audits_ok ? "ok" : arm.audit_error.c_str());
      healthy = false;
    }
  }
  const Arm& four = arms.back();
  double lo = 1e300;
  double hi = 0;
  for (uint32_t i = 0; i < kScalingSeeds; ++i) {
    const double x = four.seed_rps[i] / one.seed_rps[i];
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  std::printf("Per-seed 4-machine speedup: %.2fx to %.2fx (seeds %llu-%llu)\n",
              lo, hi, static_cast<unsigned long long>(kSeed),
              static_cast<unsigned long long>(kSeed + kScalingSeeds - 1));
  const double speedup = four.rps() / base;
  std::printf(
      "Scaling floor: 4 server machines deliver %.2fx the 1-machine "
      "pooled aggregate (contract: >= 2.50x) — %s\n",
      speedup, speedup >= 2.5 ? "contract holds" : "CONTRACT BROKEN");
  if (speedup < 2.5 || !healthy) {
    std::abort();
  }

  const RackResult cut = MustRun(PowerCutConfig(), "power-cut");
  std::printf(
      "\nPower-cut arm (4 machines, one loses power at 2.0 s):\n"
      "  cut fired: %s; failover (cut -> first re-steered ack): %.1f ms\n"
      "  acked %llu (%llu re-steered to ring successors), corrupt %llu, "
      "gave_up %llu\n"
      "  victim remount: %s (%llu journal txns replayed); surviving "
      "audits: %s\n",
      cut.cut_fired ? "yes" : "NO",
      1e3 * static_cast<double>(cut.recovery_cycles) / hw::kClockHz,
      static_cast<unsigned long long>(cut.acked),
      static_cast<unsigned long long>(cut.resteered),
      static_cast<unsigned long long>(cut.corrupt),
      static_cast<unsigned long long>(cut.gave_up),
      cut.recovered_ok ? "Fsck clean" : cut.recovery_error.c_str(),
      static_cast<unsigned long long>(cut.txns_replayed),
      cut.audits_ok ? "clean" : cut.audit_error.c_str());
  const bool cut_ok = cut.cut_fired && cut.resteered > 0 &&
                      cut.recovery_cycles > 0 && cut.recovered_ok &&
                      cut.corrupt == 0 && cut.audits_ok;
  std::printf("Failover contract: detect + re-steer + journal-clean "
              "recovery — %s\n",
              cut_ok ? "contract holds" : "CONTRACT BROKEN");
  if (!cut_ok) {
    std::abort();
  }
}

RackConfig SmallConfig(uint32_t servers) {
  RackConfig config = ScalingConfig(servers);
  config.lanes = 4;
  config.requests_per_lane = 10;
  config.keys = 16;
  config.vnodes = 16;
  return config;
}

void BM_RackOneMachine(benchmark::State& state) {
  for (auto _ : state) {
    const RackResult r = MustRun(SmallConfig(1), "bm");
    benchmark::DoNotOptimize(r.acked);
    state.counters["aggregate_rps"] = r.aggregate_rps;
  }
}
BENCHMARK(BM_RackOneMachine)->Unit(benchmark::kMillisecond);

void BM_RackFourMachines(benchmark::State& state) {
  for (auto _ : state) {
    const RackResult r = MustRun(SmallConfig(4), "bm");
    benchmark::DoNotOptimize(r.acked);
    state.counters["aggregate_rps"] = r.aggregate_rps;
    state.counters["resteered"] = static_cast<double>(r.resteered);
  }
}
BENCHMARK(BM_RackFourMachines)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xok::bench

XOK_BENCH_MAIN(xok::bench::PrintPaperTables)
