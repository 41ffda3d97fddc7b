#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace clientbench {

namespace {

/// 1-based nearest rank of quantile q over n samples, clamped to [1, n].
std::size_t rank_of(std::size_t n, double q) {
  // The epsilon keeps q * n = 99.000000001 (binary rounding of 0.99 * 100)
  // from rounding the rank up past the exact value.
  const double exact = q * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[rank_of(sorted.size(), q) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - rank_of(n, q);
}

double highest_supported_quantile(std::size_t n, std::size_t min_beyond) {
  double best = 0;
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999}) {
    if (samples_beyond(n, q) < min_beyond) break;
    best = q;
  }
  return best;
}

LatencySummary summarize(std::vector<double> samples) {
  LatencySummary s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  s.p50 = quantile_sorted(samples, 0.5);
  s.p99 = quantile_sorted(samples, 0.99);
  s.p99_supported = samples_beyond(s.count, 0.99) >= 10;
  s.top_q = highest_supported_quantile(s.count);
  s.top = quantile_sorted(samples, s.top_q);
  return s;
}

}  // namespace clientbench
