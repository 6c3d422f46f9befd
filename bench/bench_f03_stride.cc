// Figure (reconstructed): the application-level stride scheduler (§7.3).
// Three compute-bound processes with a 3:2:1 ticket ratio are scheduled by
// an ExOS stride scheduler built on nothing but Aegis's slice vector and
// directed yield. We print the cumulative slice counts over time — the
// paper's figure shows the same three straight lines with slopes 3:2:1.
#include <memory>

#include "bench/bench_util.h"
#include "src/exos/stride.h"

namespace xok::bench {
namespace {

struct StrideResult {
  std::vector<size_t> history;
  std::vector<uint64_t> allocations;
};

StrideResult RunStride(uint32_t t0, uint32_t t1, uint32_t t2, uint32_t slices) {
  hw::Machine machine(hw::Machine::Config{.phys_pages = 256, .name = "f3"});
  aegis::Aegis kernel(machine);
  bool stop = false;
  std::array<std::unique_ptr<exos::Process>, 3> workers;
  for (int i = 0; i < 3; ++i) {
    workers[i] = std::make_unique<exos::Process>(
        kernel,
        [&stop](exos::Process& p) {
          while (!stop) {
            p.machine().Charge(p.kernel().slice_cycles() * 2);
          }
        },
        exos::Process::Options{.slices = 0, .demand_zero = true});
    if (!workers[i]->ok()) {
      std::abort();
    }
  }
  StrideResult result;
  exos::Process sched(kernel, [&](exos::Process& p) {
    exos::StrideScheduler stride(p.kernel());
    stride.AddClient(workers[0]->id(), t0);
    stride.AddClient(workers[1]->id(), t1);
    stride.AddClient(workers[2]->id(), t2);
    stride.RunSlices(slices);
    result.history = stride.history();
    result.allocations = stride.allocations();
    stop = true;
  });
  if (!sched.ok()) {
    std::abort();
  }
  kernel.Run();
  return result;
}

void PrintPaperTables() {
  const StrideResult result = RunStride(3, 2, 1, 150);
  Table table("Figure: stride scheduler, cumulative slices (3:2:1 tickets)",
              {"slice", "proc A (3)", "proc B (2)", "proc C (1)"});
  uint64_t counts[3] = {0, 0, 0};
  for (size_t t = 0; t < result.history.size(); ++t) {
    ++counts[result.history[t]];
    if ((t + 1) % 15 == 0) {
      table.AddRow({std::to_string(t + 1), std::to_string(counts[0]),
                    std::to_string(counts[1]), std::to_string(counts[2])});
    }
  }
  table.Print();
  std::printf("Final allocation: %lu/%lu/%lu of 150 (ideal 75/50/25).\n",
              static_cast<unsigned long>(result.allocations[0]),
              static_cast<unsigned long>(result.allocations[1]),
              static_cast<unsigned long>(result.allocations[2]));
  std::printf("Paper shape check: three straight lines with slopes 3:2:1 and\n"
              "per-prefix error bounded by about one slice.\n");
}

void BM_StrideScheduling(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunStride(3, 2, 1, 150).allocations[0]);
  }
}
BENCHMARK(BM_StrideScheduling)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xok::bench

XOK_BENCH_MAIN(xok::bench::PrintPaperTables)
