#pragma once

#include <cstddef>
#include <vector>

/// \file stats.hpp
/// Order statistics for the benchmark's latency and probe samples.

namespace clientbench {

/// Nearest-rank quantile: the value at rank ceil(q * n) (1-based) of the
/// sorted samples, q in [0, 1]. `sorted` must be ascending; 0 when empty.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Median of unsorted samples (mean of the middle two for even counts).
double median(std::vector<double> samples);

/// Samples that lie strictly beyond the nearest-rank q quantile.
std::size_t samples_beyond(std::size_t n, double q);

/// The highest quantile of the ladder 0.5, 0.9, 0.99, 0.999, ... that has
/// at least `min_beyond` samples beyond it; 0 when even the median lacks
/// them.
double highest_supported_quantile(std::size_t n, std::size_t min_beyond = 10);

struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  /// Whether p99 has >= 10 samples beyond it.
  bool p99_supported = false;
  /// The highest ladder quantile with >= 10 samples beyond it, and its value.
  double top_q = 0;
  double top = 0;
};

LatencySummary summarize(std::vector<double> samples);

}  // namespace clientbench
