// A rack of exokernel machines behind one wire.
//
// One client machine load-balances the HTTP/KV workload over N server
// machines with consistent-hash sharding — all policy in library space —
// and (optionally) one server loses power mid-workload: the client
// detects the silence, re-steers the dead machine's arc to its ring
// successors, and after the run the victim's platter image is rebooted
// and journal-replayed to prove nothing synced was lost.
//
//   ./rack [servers] [cut]
//     servers  server machine count, 1..8 (default 2)
//     cut      1 = power-cut server 0 mid-run (default 0)
#include <cstdio>
#include <cstdlib>

#include "src/exos/server/rack.h"

int main(int argc, char** argv) {
  using namespace xok;
  using namespace xok::exos::server;

  RackConfig config;
  if (argc > 1) {
    config.server_machines = static_cast<uint32_t>(std::atoi(argv[1]));
  }
  if (argc > 2 && std::atoi(argv[2]) != 0) {
    config.power_cut_server = 0;
    config.power_cut_cycle = 2 * hw::kClockHz;  // 2 s in: mid-workload.
  }
  config.requests_per_lane = 30;

  std::printf("rack: %u server machine(s) x %u CPUs, %u lanes%s\n",
              config.server_machines, config.cpus_per_server, config.lanes,
              config.power_cut_server >= 0 ? ", power cut armed" : "");

  const RackResult r = RunRack(config);
  if (!r.ok) {
    std::printf("rack failed: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("  acked %llu  corrupt %llu  gave_up %llu  resteered %llu\n",
              static_cast<unsigned long long>(r.acked),
              static_cast<unsigned long long>(r.corrupt),
              static_cast<unsigned long long>(r.gave_up),
              static_cast<unsigned long long>(r.resteered));
  std::printf("  aggregate %.1f req/s over %.1f ms  (re-sends %llu)\n",
              r.aggregate_rps,
              1e3 * static_cast<double>(r.elapsed_cycles) / hw::kClockHz,
              static_cast<unsigned long long>(r.retransmissions));
  for (size_t s = 0; s < r.acked_by_server.size(); ++s) {
    std::printf("  server %zu served %llu\n", s,
                static_cast<unsigned long long>(r.acked_by_server[s]));
  }
  if (r.cut_fired) {
    std::printf("  power cut fired: failover in %.1f ms, recovery %s"
                " (%llu journal txns replayed)\n",
                1e3 * static_cast<double>(r.recovery_cycles) / hw::kClockHz,
                r.recovered_ok ? "clean" : r.recovery_error.c_str(),
                static_cast<unsigned long long>(r.txns_replayed));
  }
  std::printf("  audits %s  fingerprint %016llx\n",
              r.audits_ok ? "clean" : r.audit_error.c_str(),
              static_cast<unsigned long long>(r.fingerprint));
  return r.audits_ok && r.corrupt == 0 ? 0 : 1;
}
