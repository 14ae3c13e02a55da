// Time-series utilities: binned rate series and autocorrelation.
//
// Used by the periodicity analysis (an independent estimator of ON-OFF
// cycle duration) and by the empirical aggregate-traffic experiments.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace vstream::stats {

/// Fixed-step time series, value per bin.
struct TimeSeries {
  double t0{0.0};
  double dt{1.0};
  std::vector<double> values;

  [[nodiscard]] std::size_t size() const { return values.size(); }
  [[nodiscard]] double t_at(std::size_t i) const { return t0 + dt * static_cast<double>(i); }
};

/// Accumulate (timestamp, amount) events into a binned rate series over
/// [t0, t1): value = sum(amount in bin) / dt, i.e. a rate if `amount` is in
/// units per event.
class RateBinner {
 public:
  RateBinner(double t0, double t1, double dt);

  void add(double t, double amount);

  [[nodiscard]] TimeSeries series() const;

 private:
  double t0_;
  double dt_;
  std::vector<double> sums_;
};

/// The first significant peak of the normalised autocorrelation r(k), i.e.
/// the dominant period of the series in bins.
struct AutocorrelationPeak {
  std::size_t lag{0};
  double r{0.0};
};

/// The first lag k in [2, max_lag) with r(k) > threshold and r(k) no lower
/// than either neighbour; nullopt when none exists, or when the series is
/// constant or shorter than 4 bins. Lags are computed in order and the walk
/// stops one lag past the peak, so only an aperiodic series pays for every
/// lag up to `max_lag`.
[[nodiscard]] std::optional<AutocorrelationPeak> autocorrelation_peak(
    std::span<const double> xs, std::size_t max_lag, double threshold = 0.1);

}  // namespace vstream::stats
