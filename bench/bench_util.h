// Shared infrastructure for the paper-reproduction benchmarks.
//
// Every bench binary does two things:
//   1. Prints its paper table/figure, computed from *simulated cycles* on
//      the modelled DECstation 5000/125 (deterministic, comparable to the
//      paper's microsecond numbers in shape).
//   2. Runs google-benchmark wall-clock measurements of the same
//      operations (the real cost of the C++ implementations on the host),
//      attaching a `sim_us` counter per benchmark.
#ifndef XOK_BENCH_BENCH_UTIL_H_
#define XOK_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "src/core/aegis.h"
#include "src/exos/process.h"
#include "src/exos/tracelib.h"
#include "src/hw/machine.h"
#include "src/ultrix/ultrix.h"

namespace xok::bench {

inline double Us(uint64_t cycles) { return hw::CyclesToMicros(cycles); }

// --- Optional kernel tracing: --xok_trace=PATH ---
//
// When the flag is present, every RunOnAegis/RunOnExos boot of the paper
// tables arms an xtrace ring before the workload runs; once the tables are
// printed, the merged event summary is written to PATH as JSON (the
// observability sidecar next to each BENCH_*.json) and arming stops, so
// google-benchmark's wall-clock-sized loops never reach the summary and
// two runs of one binary write the same file. Armed tracing costs
// kTraceArmedSyscall per traced syscall, so expect slightly higher table
// numbers in this mode — that cost is itself measured by bench_abl_trace.
struct TraceCapture {
  bool enabled = false;
  std::string path;
  exos::TraceSummary summary;
  uint64_t sessions = 0;
};

inline TraceCapture& GlobalTraceCapture() {
  static TraceCapture capture;
  return capture;
}

// Strips --xok_trace=PATH from argv (google-benchmark rejects unknown
// flags) and records it. Call before benchmark::Initialize.
inline void ParseTraceFlag(int* argc, char** argv) {
  const std::string prefix = "--xok_trace=";
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      GlobalTraceCapture().enabled = true;
      GlobalTraceCapture().path = arg.substr(prefix.size());
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
}

// Arms the trace ring from inside the boot environment. A fresh machine
// hands out frames from the bottom, so kAnyPage allocations come back
// contiguous — but verify, and give up quietly if the run is fragmented.
inline void ArmTraceRing(aegis::Aegis& kernel, std::vector<aegis::PageGrant>& pages) {
  if (!GlobalTraceCapture().enabled) {
    return;
  }
  constexpr uint32_t kTracePages = 8;
  for (uint32_t i = 0; i < kTracePages; ++i) {
    Result<aegis::PageGrant> grant = kernel.SysAllocPage(aegis::kAnyPage);
    if (!grant.ok() || (!pages.empty() && grant->page != pages.back().page + 1)) {
      for (const aegis::PageGrant& g : pages) {
        (void)kernel.SysDeallocPage(g.page, g.cap);
      }
      pages.clear();
      return;
    }
    pages.push_back(*grant);
  }
  aegis::TraceRingSpec spec;
  spec.first_page = pages.front().page;
  spec.pages = kTracePages;
  spec.mask = xtrace::kMaskAll;
  if (kernel.SysBindTraceRing(spec, pages.front().cap) != Status::kOk) {
    for (const aegis::PageGrant& g : pages) {
      (void)kernel.SysDeallocPage(g.page, g.cap);
    }
    pages.clear();
  }
}

// Post-run harvest: decode the ring straight out of simulated RAM (the
// boot env exited cleanly, so the binding and pages persist) and fold the
// records into the global summary.
inline void HarvestTraceRing(hw::Machine& machine, const std::vector<aegis::PageGrant>& pages) {
  if (pages.empty()) {
    return;
  }
  std::span<uint8_t> region =
      machine.mem().RangeSpan(pages.front().page, static_cast<uint32_t>(pages.size()));
  Result<std::vector<xtrace::Record>> records = exos::DecodeRegion(region);
  if (records.ok()) {
    for (const xtrace::Record& record : *records) {
      GlobalTraceCapture().summary.Add(record);
    }
  }
  Result<xtrace::TraceRingView> view = xtrace::TraceRingView::AttachExisting(region);
  if (view.ok()) {
    GlobalTraceCapture().summary.dropped += view->dropped();
  }
  ++GlobalTraceCapture().sessions;
}

// Writes the summary of every boot so far, then disarms later boots.
inline void WriteTraceJson() {
  TraceCapture& capture = GlobalTraceCapture();
  if (!capture.enabled) {
    return;
  }
  capture.enabled = false;
  std::FILE* f = std::fopen(capture.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", capture.path.c_str());
    return;
  }
  std::fprintf(f, "{\"sessions\": %llu, \"summary\": %s}\n",
               static_cast<unsigned long long>(capture.sessions),
               exos::SummaryToJson(capture.summary).c_str());
  std::fclose(f);
  std::printf("wrote trace summary: %s (%llu records, %llu sessions)\n", capture.path.c_str(),
              static_cast<unsigned long long>(capture.summary.records),
              static_cast<unsigned long long>(capture.sessions));
}

// Runs `body` inside a single Aegis environment on a fresh machine.
// The body performs its own interval measurements via the machine clock.
inline void RunOnAegis(const std::function<void(aegis::Aegis&, hw::Machine&)>& body,
                       uint32_t phys_pages = 2048) {
  hw::Machine machine(hw::Machine::Config{.phys_pages = phys_pages, .name = "bench"});
  aegis::Aegis kernel(machine);
  std::vector<aegis::PageGrant> trace_pages;
  aegis::EnvSpec spec;
  spec.entry = [&] {
    ArmTraceRing(kernel, trace_pages);
    body(kernel, machine);
  };
  if (!kernel.CreateEnv(std::move(spec)).ok()) {
    std::fprintf(stderr, "bench: CreateEnv failed\n");
    std::abort();
  }
  kernel.Run();
  HarvestTraceRing(machine, trace_pages);
}

// Runs `body` inside a single ExOS process (full library OS handlers).
inline void RunOnExos(const std::function<void(exos::Process&)>& body,
                      uint32_t phys_pages = 2048) {
  hw::Machine machine(hw::Machine::Config{.phys_pages = phys_pages, .name = "bench"});
  aegis::Aegis kernel(machine);
  std::vector<aegis::PageGrant> trace_pages;
  exos::Process proc(kernel, [&](exos::Process& p) {
    ArmTraceRing(kernel, trace_pages);
    body(p);
  });
  if (!proc.ok()) {
    std::fprintf(stderr, "bench: Process creation failed\n");
    std::abort();
  }
  kernel.Run();
  HarvestTraceRing(machine, trace_pages);
}

// Runs `body` inside a single Ultrix process on a fresh machine.
inline void RunOnUltrix(const std::function<void(ultrix::Ultrix&, hw::Machine&)>& body,
                        uint32_t phys_pages = 2048) {
  hw::Machine machine(hw::Machine::Config{.phys_pages = phys_pages, .name = "bench"});
  ultrix::Ultrix kernel(machine);
  if (!kernel.CreateProcess([&] { body(kernel, machine); }).ok()) {
    std::fprintf(stderr, "bench: CreateProcess failed\n");
    std::abort();
  }
  kernel.Run();
}

// Paper-style table printing.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  // Each column is as wide as its widest cell plus a two-space gap.
  void Print() const {
    std::vector<size_t> widths;
    auto widen = [&widths](const std::vector<std::string>& cells) {
      widths.resize(std::max(widths.size(), cells.size()), 0);
      for (size_t i = 0; i < cells.size(); ++i) {
        widths[i] = std::max(widths[i], cells[i].size() + 2);
      }
    };
    widen(columns_);
    for (const auto& row : rows_) {
      widen(row);
    }
    const size_t rule = std::accumulate(widths.begin(), widths.end(), size_t{0});
    std::printf("\n=== %s ===\n", title_.c_str());
    PrintCells(columns_, widths);
    std::printf("%s\n", std::string(rule, '-').c_str());
    for (const auto& row : rows_) {
      PrintCells(row, widths);
    }
    std::printf("\n");
  }

 private:
  static void PrintCells(const std::vector<std::string>& cells, const std::vector<size_t>& widths) {
    for (size_t i = 0; i < cells.size(); ++i) {
      std::printf("%-*s", static_cast<int>(widths[i]), cells[i].c_str());
    }
    std::printf("\n");
  }

  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string FmtUs(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", us);
  return buf;
}

inline std::string FmtX(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fx", ratio);
  return buf;
}

// Standard main: print the paper table (and write the --xok_trace summary
// of its boots), then run google-benchmark. Understands --xok_trace=PATH
// (stripped before benchmark::Initialize).
#define XOK_BENCH_MAIN(PrintPaperTables)                  \
  int main(int argc, char** argv) {                       \
    ::xok::bench::ParseTraceFlag(&argc, argv);            \
    PrintPaperTables();                                   \
    ::xok::bench::WriteTraceJson();                       \
    ::benchmark::Initialize(&argc, argv);                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();                \
    ::benchmark::Shutdown();                              \
    return 0;                                             \
  }

}  // namespace xok::bench

#endif  // XOK_BENCH_BENCH_UTIL_H_
