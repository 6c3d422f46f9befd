// Checks of the benchmark's own arithmetic (perfbench/metrics.h). Exits
// nonzero on the first failed check. Run with: python3 perfbench/run.py --selftest
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "perfbench/metrics.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void TailRule() {
  // Nearest rank: ceil(990 * n / 1000).
  Check(perfbench::NearestRank(1000, 990) == 990, "p99 rank of 1000 samples is 990");
  Check(perfbench::NearestRank(1, 990) == 1, "rank clamps to the only sample");
  Check(perfbench::NearestRank(0, 990) == 0, "no samples, no rank");
  Check(perfbench::SamplesBeyond(1000, 990) == 10, "1000 samples leave 10 beyond p99");
  Check(perfbench::TailSupported(1000, 990), "p99 of 1000 samples is supported");
  Check(!perfbench::TailSupported(999, 990), "p99 of 999 samples leaves 9 beyond");
  // 100 samples are enough for LatencySummary's p99 flag, not for this rule.
  Check(!perfbench::TailSupported(100, 990), "p99 of 100 samples is the max");
  Check(!perfbench::TailSupported(0, 990), "empty sample set");
  Check(perfbench::TailSupported(20, 500), "p50 of 20 samples leaves 10 beyond");
  Check(!perfbench::TailSupported(19, 500), "p50 of 19 samples leaves 9 beyond");
}

void FailFraction() {
  // The base is requests attempted, not replies received: the QUIT acks
  // loadgen counts in LoadStats::acked never reduce the failure fraction.
  Check(perfbench::FailFrac(4000, 4000) == 0.0, "all answered");
  Check(perfbench::FailFrac(4000, 3000) == 0.25, "a quarter unanswered");
  Check(perfbench::FailFrac(4000, 4002) == 0.0, "extra acks never go negative");
  Check(perfbench::FailFrac(0, 0) == 0.0, "nothing attempted");
  Check(perfbench::FailFrac(10, 0) == 1.0, "nothing answered");
}

void Ratios() {
  Check(perfbench::Ratio(120.0, 0.0) == 0.0, "per-request ratio with no acked request");
  Check(perfbench::Ratio(0.0, 0.0) == 0.0, "0 over 0");
  Check(perfbench::Ratio(9.0, 4.0) == 2.25, "plain ratio");
  Check(perfbench::Median({}) == 0.0, "median of nothing");
  Check(perfbench::Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Check(perfbench::Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");
  Check(perfbench::Quantile({}, 100) == 0.0, "quantile of nothing");
  Check(perfbench::Quantile({5.0, 1.0, 4.0, 2.0, 3.0}, 100) == 1.0, "p10 of 5 is the least");
  Check(perfbench::Quantile({5.0, 1.0, 4.0, 2.0, 3.0}, 900) == 5.0, "p90 of 5 is the greatest");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  Check(perfbench::Quantile(hundred, 100) == 10.0, "p10 of 1..100 is 10");
  Check(perfbench::Quantile(hundred, 900) == 90.0, "p90 of 1..100 is 90");
}

void Lateness() {
  using Sends = std::vector<std::pair<uint32_t, uint64_t>>;
  // On schedule: ids 5.. sent every 100 cycles from cycle 1000.
  auto late = perfbench::OpenLoopLateness(Sends{{5, 1000}, {6, 1100}, {7, 1200}}, 100);
  Check(late == std::vector<uint64_t>({0, 0, 0}), "on-schedule sends are never late");
  // A stall delays request 6 by 250 cycles; request 7 catches up to 30.
  late = perfbench::OpenLoopLateness(Sends{{7, 1230}, {5, 1000}, {6, 1350}}, 100);
  Check(late == std::vector<uint64_t>({0, 250, 30}), "lateness against origin + k*interval");
  // Early sends (the first send's own overhead sets the origin) read 0.
  late = perfbench::OpenLoopLateness(Sends{{1, 1010}, {2, 1105}}, 100);
  Check(late == std::vector<uint64_t>({0, 0}), "early sends clamp to 0");
  Check(perfbench::OpenLoopLateness({}, 100).empty(), "no sends");
}

}  // namespace

int main() {
  TailRule();
  FailFraction();
  Ratios();
  Lateness();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return EXIT_SUCCESS;
}
