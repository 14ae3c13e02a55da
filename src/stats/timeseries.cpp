#include "stats/timeseries.hpp"

#include <algorithm>

namespace vstream::stats {

std::optional<AutocorrelationPeak> autocorrelation_peak(std::span<const double> xs,
                                                       std::size_t max_lag, double threshold) {
  if (xs.size() < 4) return std::nullopt;
  const auto n = xs.size();
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  if (var <= 0.0) return std::nullopt;

  const auto r = [&](std::size_t k) {
    double s = 0.0;
    for (std::size_t i = 0; i + k < n; ++i) s += (xs[i] - mean) * (xs[i + k] - mean);
    return s / var;
  };
  // First local maximum after the zero-lag peak that clears the threshold.
  // Lag 1 never qualifies, so it only serves as lag 2's left neighbour.
  max_lag = std::min(max_lag, n - 1);
  if (max_lag < 3) return std::nullopt;
  double left = r(1);
  double mid = r(2);
  for (std::size_t k = 2; k < max_lag; ++k) {
    const double right = r(k + 1);
    if (mid > threshold && mid >= left && mid >= right) return AutocorrelationPeak{k, mid};
    left = mid;
    mid = right;
  }
  return std::nullopt;
}

}  // namespace vstream::stats
