// Table 3: a sample of Aegis's primitive operations — the guaranteed-
// register pseudo-instructions (like Alpha PALcode) plus the bind-time
// memory operations. All times are simulated microseconds per operation.
#include "bench/bench_util.h"

namespace xok::bench {
namespace {

constexpr int kIters = 4'000;

template <typename Fn>
uint64_t PerOp(hw::Machine& machine, Fn&& fn) {
  const uint64_t t0 = machine.clock().now();
  for (int i = 0; i < kIters; ++i) {
    fn(i);
  }
  return (machine.clock().now() - t0) / kIters;
}

void PrintPaperTables() {
  Table table("Table 3: Aegis primitive operations (us, simulated)", {"operation", "time"});
  RunOnAegis([&](aegis::Aegis& kernel, hw::Machine& machine) {
    table.AddRow({"GetCycles (rdcycle)",
                  FmtUs(Us(PerOp(machine, [&](int) { kernel.SysGetCycles(); })))});
    table.AddRow(
        {"GetSelf (env id)", FmtUs(Us(PerOp(machine, [&](int) { kernel.SysSelf(); })))});
    table.AddRow(
        {"CpuSlices", FmtUs(Us(PerOp(machine, [&](int) { kernel.SysCpuSlices(); })))});
    table.AddRow({"null syscall", FmtUs(Us(PerOp(machine, [&](int) { kernel.SysNull(); })))});

    Result<aegis::PageGrant> grant = kernel.SysAllocPage();
    if (!grant.ok()) {
      std::abort();
    }
    table.AddRow({"TLB write (w/ cap check)",
                  FmtUs(Us(PerOp(machine, [&](int i) {
                    (void)kernel.SysTlbWrite(0x100000 + (i % 64) * hw::kPageBytes, grant->page,
                                             true, grant->cap);
                  })))});
    table.AddRow({"TLB invalidate", FmtUs(Us(PerOp(machine, [&](int i) {
                    (void)kernel.SysTlbInvalidate(0x100000 + (i % 64) * hw::kPageBytes);
                  })))});
    table.AddRow({"derive capability", FmtUs(Us(PerOp(machine, [&](int) {
                    (void)kernel.SysDeriveCap(grant->cap, cap::kRead);
                  })))});

    const uint64_t t0 = machine.clock().now();
    for (int i = 0; i < 512; ++i) {
      Result<aegis::PageGrant> page = kernel.SysAllocPage();
      if (page.ok()) {
        (void)kernel.SysDeallocPage(page->page, page->cap);
      }
    }
    table.AddRow({"alloc+dealloc page", FmtUs(Us((machine.clock().now() - t0) / 512))});
  });
  table.Print();
}

// Wall time comes from google-benchmark's loop; sim_us is the fixed-kIters
// PerOp value, so it does not depend on the chosen iteration count.
void BM_TlbWrite(benchmark::State& state) {
  uint64_t sim = 0;
  RunOnAegis([&](aegis::Aegis& kernel, hw::Machine& machine) {
    Result<aegis::PageGrant> grant = kernel.SysAllocPage();
    const auto write = [&](int i) {
      (void)kernel.SysTlbWrite(0x100000 + (i % 64) * hw::kPageBytes, grant->page, true,
                               grant->cap);
    };
    sim = PerOp(machine, write);
    int i = 0;
    for (auto _ : state) {
      write(i++);
    }
  });
  state.counters["sim_us"] = Us(sim);
}
BENCHMARK(BM_TlbWrite);

void BM_GetCycles(benchmark::State& state) {
  uint64_t sim = 0;
  RunOnAegis([&](aegis::Aegis& kernel, hw::Machine& machine) {
    sim = PerOp(machine, [&](int) { kernel.SysGetCycles(); });
    for (auto _ : state) {
      benchmark::DoNotOptimize(kernel.SysGetCycles());
    }
  });
  state.counters["sim_us"] = Us(sim);
}
BENCHMARK(BM_GetCycles);

}  // namespace
}  // namespace xok::bench

XOK_BENCH_MAIN(xok::bench::PrintPaperTables)
