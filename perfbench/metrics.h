// The benchmark's own arithmetic, kept free of simulator types so
// selftest.cc can check it in isolation: percentile tails, failure
// fractions, guarded ratios, medians and open-loop send lateness.
#ifndef XOK_PERFBENCH_METRICS_H_
#define XOK_PERFBENCH_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// A tail percentile is reported only when at least this many samples lie
// beyond it; otherwise the value is one of the few largest samples and
// says nothing about the tail.
inline constexpr uint64_t kMinSamplesBeyond = 10;

// Nearest rank of the `per_mille` percentile among `n` sorted samples, the
// convention of reqtrace::Percentile: ceil(per_mille * n / 1000) clamped to
// [1, n]; 0 when there are no samples.
inline uint64_t NearestRank(uint64_t n, uint32_t per_mille) {
  if (n == 0) {
    return 0;
  }
  const uint64_t rank = (per_mille * n + 999) / 1000;
  return std::clamp<uint64_t>(rank, 1, n);
}

// Samples strictly beyond the nearest-rank percentile.
inline uint64_t SamplesBeyond(uint64_t n, uint32_t per_mille) {
  return n - NearestRank(n, per_mille);
}

// True when the `per_mille` percentile of `n` samples leaves at least
// kMinSamplesBeyond samples past it. p99 needs n >= 1000.
inline bool TailSupported(uint64_t n, uint32_t per_mille) {
  return n > 0 && SamplesBeyond(n, per_mille) >= kMinSamplesBeyond;
}

// num / den, or 0 when nothing was counted in the base: a per-request
// ratio over a run that acked no requests reads 0, never inf or NaN.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// 1 - (requests answered correctly / requests attempted). Everything not
// answered correctly counts: gave up, abandoned, corrupt, wrong status,
// unanswered at the deadline. An empty run has no failures.
inline double FailFrac(uint64_t attempted, uint64_t answered_ok) {
  if (attempted == 0) {
    return 0.0;
  }
  const uint64_t ok = std::min(answered_ok, attempted);
  return static_cast<double>(attempted - ok) / static_cast<double>(attempted);
}

// Median of `values` (mean of the middle two for an even count); 0 if empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

// Nearest-rank `per_mille` quantile of `values` (any order); 0 if empty.
inline double Quantile(std::vector<double> values, uint32_t per_mille) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), per_mille) - 1];
}

// Open-loop send lateness. An open-loop client owes request k (its k-th
// data request, 0-based) at origin + k * interval, where the origin is the
// first request's send. `sends` holds (request sequence number, send
// cycle) pairs in any order; sequence numbers are consecutive from the
// smallest one. Returns each request's lateness in cycles, ordered by
// sequence number; a send at or before its slot reads 0.
inline std::vector<uint64_t> OpenLoopLateness(std::vector<std::pair<uint32_t, uint64_t>> sends,
                                              uint64_t interval) {
  std::vector<uint64_t> late;
  if (sends.empty()) {
    return late;
  }
  std::sort(sends.begin(), sends.end());
  const uint32_t first_seq = sends.front().first;
  const uint64_t origin = sends.front().second;
  late.reserve(sends.size());
  for (const auto& [seq, cycle] : sends) {
    const uint64_t due = origin + static_cast<uint64_t>(seq - first_seq) * interval;
    late.push_back(cycle > due ? cycle - due : 0);
  }
  return late;
}

}  // namespace perfbench

#endif  // XOK_PERFBENCH_METRICS_H_
