#include "stats/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vstream::stats {

RateBinner::RateBinner(double t0, double t1, double dt) : t0_{t0}, dt_{dt} {
  if (dt <= 0.0) throw std::invalid_argument{"RateBinner: dt must be positive"};
  if (t1 <= t0) throw std::invalid_argument{"RateBinner: t1 must exceed t0"};
  const auto bins = static_cast<std::size_t>(std::ceil((t1 - t0) / dt));
  sums_.assign(bins, 0.0);
}

void RateBinner::add(double t, double amount) {
  if (t < t0_) return;
  const auto i = static_cast<std::size_t>((t - t0_) / dt_);
  if (i >= sums_.size()) return;
  sums_[i] += amount;
}

TimeSeries RateBinner::series() const {
  TimeSeries ts;
  ts.t0 = t0_;
  ts.dt = dt_;
  ts.values.reserve(sums_.size());
  for (const double s : sums_) ts.values.push_back(s / dt_);
  return ts;
}

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
