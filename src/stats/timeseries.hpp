// Time-series utilities: the autocorrelation peak search.
//
// Used by the periodicity analysis (an independent estimator of ON-OFF
// cycle duration).
#pragma once

#include <cstddef>
#include <optional>
#include <span>

namespace vstream::stats {

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
