// Sample summaries for the benchmark: medians and the highest percentile a
// sample supports.
//
// A percentile is reported only when at least kTailSamples samples lie
// beyond it, so a "p99" read off 300 samples (3 beyond) is never printed as
// if it meant anything. Percentiles use the nearest-rank definition on the
// sorted sample: rank(p) = ceil(p/100 * n), value = sorted[rank - 1], and
// the samples beyond it are the n - rank(p) larger-ranked ones.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr size_t kTailSamples = 10;
inline constexpr double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99, 99.999};

// 1-based nearest rank of percentile p in a sample of n (n >= 1).
inline size_t nearestRank(size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

inline size_t samplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - nearestRank(n, p);
}

inline bool supported(size_t n, double p) {
  return n > 0 && samplesBeyond(n, p) >= kTailSamples;
}

// Highest ladder percentile with >= kTailSamples samples beyond it, or 0
// when even the median is unsupported (n < 20).
inline double highestSupported(size_t n) {
  double best = 0;
  for (double p : kLadder) {
    if (supported(n, p)) best = p;
  }
  return best;
}

inline double percentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[nearestRank(sorted.size(), p) - 1];
}

struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p99 = 0;      // nearest-rank p99 (see p99_supported)
  bool p99_supported = false;
  double tail_p = 0;   // highest supported percentile (0 = none)
  double tail = 0;     // value at tail_p
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = percentileSorted(v, 50);
  s.p99 = percentileSorted(v, 99);
  s.p99_supported = supported(s.n, 99);
  s.tail_p = highestSupported(s.n);
  s.tail = s.tail_p > 0 ? percentileSorted(v, s.tail_p) : 0;
  return s;
}

inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double acc = 0;
  for (double x : v) acc += std::log(std::max(x, 1e-12));
  return std::exp(acc / static_cast<double>(v.size()));
}

}  // namespace perfbench
