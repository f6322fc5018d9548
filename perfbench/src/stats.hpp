// Order statistics for benchmark samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median; the mean of the two middle values for an even count, 0 for none.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
}

/// A percentile with the sample count behind it.
struct Tail {
  double percentile = 0.0;  ///< e.g. 99 for p99; 0 when no percentile qualifies
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile p of a sorted sample: the value at 1-based rank
/// ceil(p/100 * n). Returns the number of samples ranked above it.
inline std::size_t samples_beyond(std::size_t n, double percentile) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(percentile * static_cast<double>(n) / 100.0 - 1e-9));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

/// The highest of p99.9, p99, p95, p90, p75 and p50 that still has at least
/// 10 samples above it, so a reported tail never rests on fewer observations.
inline Tail tail_percentile(std::vector<double> samples) {
  constexpr std::size_t kMinBeyond = 10;
  Tail tail;
  tail.samples = samples.size();
  std::sort(samples.begin(), samples.end());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samples.empty() || samples_beyond(samples.size(), p) < kMinBeyond) continue;
    const std::size_t rank = samples.size() - samples_beyond(samples.size(), p);
    tail.percentile = p;
    tail.value = samples[rank - 1];
    return tail;
  }
  return tail;
}

}  // namespace perfbench
