// xtop: a live per-environment resource monitor, built entirely in
// application space from what the exokernel exposes — SysEnvStats (raw
// per-env counters), SysSyscallHist (log2 latency histograms), and a bound
// trace ring (src/exos/tracelib). The kernel contributes no "top"
// abstraction whatsoever: sampling period, which columns to show, and how
// to aggregate are all library policy here. The "rps" column is the same
// idea one level up: the server libOS marks request enter/exit with
// SysTraceMark (kAppMark records), and the monitor turns the exits it
// drains each interval into a per-environment request rate — live RPS for
// a server the kernel doesn't even know is a server.
//
//   cmake -B build && cmake --build build
//   ./build/examples/xtop
#include <cstdio>
#include <unordered_map>

#include "src/core/aegis.h"
#include "src/exos/process.h"
#include "src/exos/reqtrace.h"
#include "src/exos/server/loadgen.h"
#include "src/exos/server/server.h"
#include "src/exos/tracelib.h"
#include "src/exos/udp.h"
#include "src/hw/cost.h"
#include "src/hw/disk.h"
#include "src/hw/nic.h"

using namespace xok;

namespace {

constexpr uint64_t kNicMac = 0x02aabbccddee;

// Completed requests per env this interval, from drained kAppMark exits.
using RpsMap = std::unordered_map<uint16_t, uint64_t>;

// Per-env mean stage latencies this interval, from reqtrace timelines:
// the same joined critical path the bench aggregates, rendered live.
struct StageAgg {
  uint64_t n = 0;
  uint64_t rwait = 0;  // demux -> worker pickup (ring residency).
  uint64_t parse = 0;
  uint64_t store = 0;
  uint64_t tx = 0;
};
using StageMap = std::unordered_map<uint16_t, StageAgg>;

// One sampled row per environment, straight from SysEnvStats; the rps
// column comes from the trace ring, not the kernel.
void PrintSample(exos::Process& p, uint64_t sample_no, const RpsMap& reqs,
                 const StageMap& stages, uint64_t interval_cycles) {
  std::printf("--- xtop sample %llu (cycle %llu) ---\n",
              static_cast<unsigned long long>(sample_no),
              static_cast<unsigned long long>(p.kernel().SysGetCycles()));
  // "mach" is the World machine index (0 standalone): under a multi-machine
  // World several kernels print interleaved samples, and the column is what
  // keeps their env ids from reading as one namespace.
  const unsigned mach = p.machine().world_index();
  std::printf("%4s %4s %6s %4s %10s %9s %9s %8s %8s %8s %6s %5s %7s %7s %7s %7s %7s\n",
              "mach", "env", "alive", "cpu", "cycles", "syscalls", "tlb-miss",
              "pages", "pkt-rxtx", "blk-rw", "shed", "migr", "rps", "rwait",
              "parse", "store", "tx");
  for (aegis::EnvId id = 1;; ++id) {
    Result<aegis::EnvStats> stats = p.kernel().SysEnvStats(id);
    if (!stats.ok()) {
      break;
    }
    char cpu[8];
    if (stats->alive) {
      std::snprintf(cpu, sizeof(cpu), "%u", stats->cpu);
    } else {
      std::snprintf(cpu, sizeof(cpu), "-");
    }
    char rps[16];
    const auto it = reqs.find(static_cast<uint16_t>(stats->env));
    if (it == reqs.end() || interval_cycles == 0) {
      std::snprintf(rps, sizeof(rps), "-");
    } else {
      std::snprintf(rps, sizeof(rps), "%.0f",
                    static_cast<double>(it->second) *
                        static_cast<double>(hw::kClockHz) /
                        static_cast<double>(interval_cycles));
    }
    // Mean per-stage cycles for requests this env completed this interval
    // ("-" when it completed none): where inside the worker the time went.
    char stage_cols[4][16];
    const auto st = stages.find(static_cast<uint16_t>(stats->env));
    const uint64_t vals[4] = {
        st != stages.end() ? st->second.rwait : 0,
        st != stages.end() ? st->second.parse : 0,
        st != stages.end() ? st->second.store : 0,
        st != stages.end() ? st->second.tx : 0,
    };
    for (int i = 0; i < 4; ++i) {
      if (st == stages.end() || st->second.n == 0) {
        std::snprintf(stage_cols[i], sizeof(stage_cols[i]), "-");
      } else {
        std::snprintf(stage_cols[i], sizeof(stage_cols[i]), "%llu",
                      static_cast<unsigned long long>(vals[i] / st->second.n));
      }
    }
    std::printf("%4u %4u %6s %4s %10llu %9llu %9llu %8u %8llu %8llu %6llu %5llu %7s"
                " %7s %7s %7s %7s\n",
                mach, stats->env,
                stats->alive ? "yes" : (stats->killed ? "kill" : "exit"),
                cpu, static_cast<unsigned long long>(stats->counters.cycles_on_cpu),
                static_cast<unsigned long long>(stats->counters.syscalls_total()),
                static_cast<unsigned long long>(stats->counters.tlb_misses),
                stats->pages_held,
                static_cast<unsigned long long>(stats->counters.packets_rx +
                                                stats->counters.packets_tx),
                static_cast<unsigned long long>(stats->counters.disk_blocks_read +
                                                stats->counters.disk_blocks_written),
                static_cast<unsigned long long>(stats->counters.packets_shed),
                static_cast<unsigned long long>(stats->counters.migrations), rps,
                stage_cols[0], stage_cols[1], stage_cols[2], stage_cols[3]);
  }
}

}  // namespace

int main() {
  // Two CPUs so the cpu/migr columns have something to show: the kernel
  // places the processes across both and they migrate as slices free up.
  hw::Machine machine(hw::Machine::Config{.phys_pages = 2048, .name = "xtop", .cpus = 2});
  aegis::Aegis kernel(machine, aegis::Aegis::Config{.max_envs = 64});
  hw::Wire wire;  // Nobody on the far end; TX still counts.
  hw::Nic nic(machine, kNicMac);
  hw::Disk disk(machine, 512);
  wire.Attach(&nic);
  kernel.AttachNic(&nic);
  kernel.AttachDisk(&disk);

  // --- Workload: two processes generating observable activity ---

  // A memory-churner: allocates pages and touches demand-zero heap (TLB
  // misses, alloc syscalls).
  exos::Process churner(kernel, [](exos::Process& p) {
    for (int round = 0; round < 40; ++round) {
      (void)p.machine().StoreWord(0x200000 + round * hw::kPageBytes, round);
      p.kernel().SysYield();
    }
  });

  // An HTTP/KV server worker plus a seeded load client (src/exos/server):
  // the worker marks every request enter/exit with SysTraceMark, which is
  // what the monitor's rps column reads back out of the trace ring.
  using namespace exos::server;
  auto loop_resolve = [](uint32_t) -> uint64_t { return kNicMac; };
  KvServerConfig server_config;
  server_config.iface = exos::NetIface{kNicMac, /*ip=*/3, loop_resolve};
  server_config.workers = 1;
  server_config.use_rings = true;
  // Write-back store: the journaled format + preload takes tens of
  // millions of cycles, and this demo wants the worker *serving* inside
  // the monitor's sampling window, not booting.
  server_config.journal_blocks = 0;
  // A low shed watermark so the overload column has something to show:
  // burst arrivals past 2 pending frames are dropped at the demux (the
  // client's retransmits recover them), and the monitor reads the count
  // back per env through SysEnvStats.
  server_config.ring.shed_watermark = 2;
  server_config.preload = MakePreload(/*keys=*/6, /*value_bytes=*/48);
  KvServer server(kernel, server_config);

  WorkloadConfig workload;
  workload.seed = 9;
  workload.requests = 400;
  workload.keys = 6;
  workload.value_bytes = 48;
  workload.put_per_mille = 0;  // GET-only: a steady rate for the rps column.
  // Pace the stream with idle gaps so serving spans several samples —
  // a live monitor is dull when the whole run fits in one interval.
  workload.burst = 8;
  workload.burst_gap_cycles = 150'000;
  LoadGenTarget target;
  target.iface = exos::NetIface{kNicMac, /*ip=*/4, loop_resolve};
  target.server_ip = 3;
  target.server_port = server_config.port;
  target.workers = server_config.workers;
  LoadStats load_stats;
  exos::Process load_client(kernel, [&](exos::Process& p) {
    load_stats = RunLoadGen(p, target, workload);
  });

  // A talker: sends UDP frames into the ether (packet TX counters).
  exos::Process talker(kernel, [](exos::Process& p) {
    exos::NetIface iface{/*mac=*/kNicMac, /*ip=*/1,
                         /*resolve=*/[](uint32_t) -> uint64_t { return 0x02ffeeddccbb; }};
    exos::UdpSocket socket(p, iface);
    if (socket.Bind(7000) != Status::kOk) {
      return;
    }
    const uint8_t payload[] = {'x', 't', 'o', 'p'};
    for (int i = 0; i < 25; ++i) {
      (void)socket.SendTo(/*dst_ip=*/2, /*dst_port=*/7001, payload);
      p.kernel().SysYield();
    }
    (void)socket.Close();
  });

  // --- The monitor itself: samples stats between sleeps, tails the ring ---
  exos::Process monitor(kernel, [](exos::Process& p) {
    exos::TraceSession trace(p);
    // kAppMark carries the server's request marks; the rest of the mask
    // keeps the closing summary interesting without flooding the ring.
    const uint32_t mask = xtrace::Bit(xtrace::Event::kAppMark) |
                          xtrace::Bit(xtrace::Event::kDpfMatch) |
                          xtrace::Bit(xtrace::Event::kEnvBirth) |
                          xtrace::Bit(xtrace::Event::kEnvDeath);
    if (trace.Bind({.pages = 4, .mask = mask}) != Status::kOk) {
      std::fprintf(stderr, "xtop: trace ring bind failed\n");
      return;
    }
    std::vector<xtrace::Record> records;
    size_t seen = 0;  // Records already attributed to an earlier sample.
    // Stage columns: the same records, joined into per-request timelines.
    exos::reqtrace::Collector collector;
    size_t timelines_seen = 0;  // Timelines shown in an earlier sample.
    uint64_t last_cycle = p.kernel().SysGetCycles();
    for (uint64_t sample = 1; sample <= 5; ++sample) {
      // Long enough for the server worker to boot (journal format +
      // preload) and then show steady-state serving in later samples.
      p.kernel().SysSleep(2'500'000);
      trace.Drain(records);
      RpsMap reqs;
      for (size_t i = seen; i < records.size(); ++i) {
        const xtrace::Record& r = records[i];
        // SysTraceMark(req_id, 1, ...) is the server's request-exit mark.
        if (r.type == static_cast<uint16_t>(xtrace::Event::kAppMark) &&
            r.arg1 == exos::reqtrace::kPhaseExit) {
          ++reqs[r.env];
        }
        collector.Add(r, static_cast<uint16_t>(p.machine().world_index()));
      }
      seen = records.size();
      StageMap stages;
      for (size_t i = timelines_seen; i < collector.all().size(); ++i) {
        using exos::reqtrace::Span;
        const exos::reqtrace::RequestTimeline& t = collector.all()[i];
        StageAgg& agg = stages[t.env];
        ++agg.n;
        agg.rwait += t.span[static_cast<uint32_t>(Span::kRingWait)];
        agg.parse += t.span[static_cast<uint32_t>(Span::kParse)];
        agg.store += t.span[static_cast<uint32_t>(Span::kStore)];
        agg.tx += t.span[static_cast<uint32_t>(Span::kTx)];
      }
      timelines_seen = collector.all().size();
      const uint64_t now = p.kernel().SysGetCycles();
      PrintSample(p, sample, reqs, stages, now - last_cycle);
      last_cycle = now;
    }
    exos::TraceSummary summary = exos::Summarize(records);
    summary.dropped = trace.dropped();
    std::printf("\ntrace: %llu records (%llu dropped by ring, %llu lost to lap)\n",
                static_cast<unsigned long long>(summary.records),
                static_cast<unsigned long long>(summary.dropped),
                static_cast<unsigned long long>(trace.lapped()));
    for (uint32_t i = 0; i < xtrace::kEventCount; ++i) {
      if (summary.by_type[i] > 0) {
        std::printf("  %-14s %8llu\n", xtrace::EventName(static_cast<xtrace::Event>(i)),
                    static_cast<unsigned long long>(summary.by_type[i]));
      }
    }
    // Latency histogram for SysYield — the kernel keeps the log2 buckets,
    // the library decides how to render them.
    Result<xtrace::LatencyHist> hist =
        p.kernel().SysSyscallHist(static_cast<uint32_t>(xtrace::Sys::kYield));
    if (hist.ok() && hist->count > 0) {
      std::printf("\nsys_yield latency: %llu calls, mean %.1f cycles, max %llu\n",
                  static_cast<unsigned long long>(hist->count),
                  static_cast<double>(hist->total_cycles) / hist->count,
                  static_cast<unsigned long long>(hist->max_cycles));
      for (uint32_t b = 0; b < xtrace::kHistBuckets; ++b) {
        if (hist->bucket[b] > 0) {
          std::printf("  [2^%-2u, 2^%-2u) %8llu\n", b, b + 1,
                      static_cast<unsigned long long>(hist->bucket[b]));
        }
      }
    }
    (void)trace.Close();
  });

  if (!server.ok() || !load_client.ok() || !churner.ok() || !talker.ok() ||
      !monitor.ok()) {
    std::fprintf(stderr, "xtop: failed to create processes\n");
    return 1;
  }
  kernel.Run();
  std::printf("\nserver: %llu/%u requests acked at %.0f rps overall\n",
              static_cast<unsigned long long>(load_stats.acked),
              workload.requests + server_config.workers, load_stats.Rps());
  return 0;
}
