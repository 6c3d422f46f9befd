// Table 2: null procedure call and null system call, Aegis vs Ultrix.
// The paper's headline: Aegis kernel crossings cost little more than a
// procedure call; Ultrix pays the full monolithic trap + syscall layer.
#include "bench/bench_util.h"

namespace xok::bench {
namespace {

constexpr int kIters = 10'000;

// Simulated cycles per call of `fn`, averaged over a fixed kIters.
template <typename Fn>
uint64_t PerOp(hw::Machine& machine, Fn&& fn) {
  const uint64_t t0 = machine.clock().now();
  for (int i = 0; i < kIters; ++i) {
    fn();
  }
  return (machine.clock().now() - t0) / kIters;
}

struct Numbers {
  uint64_t proc_call = 0;
  uint64_t aegis_syscall = 0;
  uint64_t ultrix_syscall = 0;
};

Numbers Collect() {
  Numbers numbers;
  RunOnAegis([&](aegis::Aegis& kernel, hw::Machine& machine) {
    // A "procedure call" on the simulated machine: call + frame + return.
    numbers.proc_call = PerOp(machine, [&] { machine.Charge(hw::Instr(7)); });
    numbers.aegis_syscall = PerOp(machine, [&] { kernel.SysNull(); });
  });
  RunOnUltrix([&](ultrix::Ultrix& kernel, hw::Machine& machine) {
    numbers.ultrix_syscall = PerOp(machine, [&] { kernel.SysNull(); });
  });
  return numbers;
}

void PrintPaperTables() {
  const Numbers numbers = Collect();
  Table table("Table 2: null procedure and system call (us, simulated)",
              {"operation", "Aegis", "Ultrix", "Ultrix/Aegis"});
  table.AddRow({"procedure call", FmtUs(Us(numbers.proc_call)), "-", "-"});
  table.AddRow({"null syscall", FmtUs(Us(numbers.aegis_syscall)),
                FmtUs(Us(numbers.ultrix_syscall)),
                FmtX(static_cast<double>(numbers.ultrix_syscall) / numbers.aegis_syscall)});
  table.Print();
}

// Wall time comes from google-benchmark's loop; sim_us is the fixed-kIters
// per-call value, so it does not depend on the chosen iteration count.
void BM_AegisNullSyscall(benchmark::State& state) {
  uint64_t sim = 0;
  RunOnAegis([&](aegis::Aegis& kernel, hw::Machine& machine) {
    sim = PerOp(machine, [&] { kernel.SysNull(); });
    for (auto _ : state) {
      kernel.SysNull();
    }
  });
  state.counters["sim_us"] = Us(sim);
}
BENCHMARK(BM_AegisNullSyscall);

void BM_UltrixNullSyscall(benchmark::State& state) {
  uint64_t sim = 0;
  RunOnUltrix([&](ultrix::Ultrix& kernel, hw::Machine& machine) {
    sim = PerOp(machine, [&] { kernel.SysNull(); });
    for (auto _ : state) {
      kernel.SysNull();
    }
  });
  state.counters["sim_us"] = Us(sim);
}
BENCHMARK(BM_UltrixNullSyscall);

}  // namespace
}  // namespace xok::bench

XOK_BENCH_MAIN(xok::bench::PrintPaperTables)
