// Ablation: what does observability cost? The xtrace hooks are compiled
// into every syscall, so the interesting numbers are (a) a disarmed hook —
// a branch on a nullptr ring, which must cost *zero* simulated cycles so
// the paper tables elsewhere in this repo are unchanged — and (b) an armed
// ring, which charges kTraceArmedSyscall per traced syscall (the record
// stores themselves sink into the R3000 write buffer). The acceptance
// bound is < 10% on the worst case, SysNull, the shortest syscall there is.
#include "bench/bench_util.h"

namespace xok::bench {
namespace {

constexpr int kIters = 10'000;
constexpr uint32_t kRingPages = 8;

// Arms the trace ring with `mask` from inside the boot environment (fresh
// machine: kAnyPage allocations come back contiguous from frame 0). The
// ring is a global resource and this bench measures its cost, so it must
// own the analyser outright: kick out the harness's --xok_trace ring if
// one is armed.
std::vector<aegis::PageGrant> Arm(aegis::Aegis& kernel, uint32_t mask) {
  (void)kernel.SysUnbindTraceRing();
  std::vector<aegis::PageGrant> pages;
  for (uint32_t i = 0; i < kRingPages; ++i) {
    pages.push_back(*kernel.SysAllocPage(aegis::kAnyPage));
  }
  aegis::TraceRingSpec spec;
  spec.first_page = pages.front().page;
  spec.pages = kRingPages;
  spec.mask = mask;
  if (kernel.SysBindTraceRing(spec, pages.front().cap) != Status::kOk) {
    std::fprintf(stderr, "bench_abl_trace: bind failed\n");
    std::abort();
  }
  return pages;
}

// Simulated cycles per call of `fn`, averaged over a fixed kIters.
template <typename Fn>
uint64_t PerOp(hw::Machine& machine, Fn&& fn) {
  const uint64_t t0 = machine.clock().now();
  for (int i = 0; i < kIters; ++i) {
    fn();
  }
  return (machine.clock().now() - t0) / kIters;
}

uint64_t MeasureSysNull(aegis::Aegis& kernel, hw::Machine& machine) {
  return PerOp(machine, [&] { kernel.SysNull(); });
}

struct Numbers {
  uint64_t disarmed = 0;
  uint64_t armed_all = 0;
  uint64_t armed_lifecycle = 0;  // Syscall events masked out at bind time.
  uint64_t ring_records = 0;
  uint64_t ring_dropped = 0;
  uint64_t hist_count = 0;
  double hist_mean = 0;
};

Numbers Collect() {
  Numbers numbers;
  RunOnAegis([&](aegis::Aegis& kernel, hw::Machine& machine) {
    (void)kernel.SysUnbindTraceRing();  // "Disarmed" must mean disarmed.
    numbers.disarmed = MeasureSysNull(kernel, machine);
  });
  RunOnAegis([&](aegis::Aegis& kernel, hw::Machine& machine) {
    std::vector<aegis::PageGrant> pages = Arm(kernel, xtrace::kMaskAll);
    numbers.armed_all = MeasureSysNull(kernel, machine);
    std::span<uint8_t> region = machine.mem().RangeSpan(pages.front().page, kRingPages);
    Result<xtrace::TraceRingView> view = xtrace::TraceRingView::AttachExisting(region);
    numbers.ring_records = view->head();
    numbers.ring_dropped = view->dropped();
    Result<xtrace::LatencyHist> hist =
        kernel.SysSyscallHist(static_cast<uint32_t>(xtrace::Sys::kNull));
    numbers.hist_count = hist->count;
    numbers.hist_mean =
        hist->count > 0 ? static_cast<double>(hist->total_cycles) / hist->count : 0;
  });
  RunOnAegis([&](aegis::Aegis& kernel, hw::Machine& machine) {
    (void)Arm(kernel, xtrace::kMaskEnvLifecycle);
    numbers.armed_lifecycle = MeasureSysNull(kernel, machine);
  });
  return numbers;
}

void PrintPaperTables() {
  const Numbers numbers = Collect();
  const double overhead_all =
      100.0 * (static_cast<double>(numbers.armed_all) - numbers.disarmed) / numbers.disarmed;
  const double overhead_lifecycle =
      100.0 * (static_cast<double>(numbers.armed_lifecycle) - numbers.disarmed) /
      numbers.disarmed;
  char pct[32];

  Table table("Ablation: xtrace cost on SysNull (simulated cycles/call)",
              {"ring state", "cycles", "us", "overhead"});
  table.AddRow({"disarmed", std::to_string(numbers.disarmed), FmtUs(Us(numbers.disarmed)), "-"});
  std::snprintf(pct, sizeof(pct), "%.1f%%", overhead_all);
  table.AddRow({"armed (all events)", std::to_string(numbers.armed_all),
                FmtUs(Us(numbers.armed_all)), pct});
  std::snprintf(pct, sizeof(pct), "%.1f%%", overhead_lifecycle);
  table.AddRow({"armed (lifecycle mask)", std::to_string(numbers.armed_lifecycle),
                FmtUs(Us(numbers.armed_lifecycle)), pct});
  table.Print();

  std::printf("armed ring wrote %llu records (%llu overwritten, drop-oldest); "
              "SysNull histogram: %llu samples, mean %.1f cycles\n",
              static_cast<unsigned long long>(numbers.ring_records),
              static_cast<unsigned long long>(numbers.ring_dropped),
              static_cast<unsigned long long>(numbers.hist_count), numbers.hist_mean);
  std::printf("acceptance: armed overhead %.1f%% %s 10%% bound\n", overhead_all,
              overhead_all < 10.0 ? "within" : "EXCEEDS");
}

// Wall time comes from google-benchmark's loop; sim_us is the fixed-kIters
// per-call value, so it does not depend on the chosen iteration count.
void BM_SysNullDisarmed(benchmark::State& state) {
  uint64_t sim = 0;
  RunOnAegis([&](aegis::Aegis& kernel, hw::Machine& machine) {
    (void)kernel.SysUnbindTraceRing();  // "Disarmed" must mean disarmed.
    sim = MeasureSysNull(kernel, machine);
    for (auto _ : state) {
      kernel.SysNull();
    }
  });
  state.counters["sim_us"] = Us(sim);
}
BENCHMARK(BM_SysNullDisarmed);

void BM_SysNullArmed(benchmark::State& state) {
  uint64_t sim = 0;
  RunOnAegis([&](aegis::Aegis& kernel, hw::Machine& machine) {
    (void)Arm(kernel, xtrace::kMaskAll);
    sim = MeasureSysNull(kernel, machine);
    for (auto _ : state) {
      kernel.SysNull();
    }
  });
  state.counters["sim_us"] = Us(sim);
}
BENCHMARK(BM_SysNullArmed);

void BM_EnvStats(benchmark::State& state) {
  uint64_t sim = 0;
  RunOnAegis([&](aegis::Aegis& kernel, hw::Machine& machine) {
    const auto stats = [&] { benchmark::DoNotOptimize(kernel.SysEnvStats(kernel.SysSelf())); };
    sim = PerOp(machine, stats);
    for (auto _ : state) {
      stats();
    }
  });
  state.counters["sim_us"] = Us(sim);
}
BENCHMARK(BM_EnvStats);

}  // namespace
}  // namespace xok::bench

XOK_BENCH_MAIN(xok::bench::PrintPaperTables)
