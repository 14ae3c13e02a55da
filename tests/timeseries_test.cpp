// Tests for the autocorrelation peak search (against the full-lag search
// it replaced), and the ON-OFF periodicity estimator built on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/accumulators.hpp"
#include "analysis/periodicity.hpp"
#include "sim/rng.hpp"
#include "stats/timeseries.hpp"

namespace vstream {
namespace {

using capture::PacketRecord;
using capture::PacketTrace;

// The full-lag search `autocorrelation_peak` replaced, kept as its oracle:
// every lag r(0..max_lag) first, then the first qualifying local maximum.
std::vector<double> full_autocorrelation(std::span<const double> xs, std::size_t max_lag) {
  if (xs.size() < 4) return {};
  const auto n = xs.size();
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  if (var <= 0.0) return {};

  max_lag = std::min(max_lag, n - 1);
  std::vector<double> out;
  out.reserve(max_lag + 1);
  for (std::size_t k = 0; k <= max_lag; ++k) {
    double s = 0.0;
    for (std::size_t i = 0; i + k < n; ++i) s += (xs[i] - mean) * (xs[i + k] - mean);
    out.push_back(s / var);
  }
  return out;
}

/// 0 when no lag qualifies.
std::size_t first_peak_lag(std::span<const double> acf, double threshold) {
  if (acf.size() < 3) return 0;
  for (std::size_t k = 1; k + 1 < acf.size(); ++k) {
    if (acf[k] > threshold && acf[k] >= acf[k - 1] && acf[k] >= acf[k + 1] && k > 1) return k;
  }
  return 0;
}

/// Checks `autocorrelation_peak` against the oracle: the same lag and a
/// bit-identical r. Returns the oracle's lag (0 = no peak).
std::size_t expect_matches_oracle(std::span<const double> xs, std::size_t max_lag,
                                  double threshold) {
  const auto acf = full_autocorrelation(xs, max_lag);
  const std::size_t want = first_peak_lag(acf, threshold);
  const auto got = stats::autocorrelation_peak(xs, max_lag, threshold);
  EXPECT_EQ(got.has_value() ? got->lag : 0U, want);
  if (want == 0 || !got.has_value()) return want;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got->r), std::bit_cast<std::uint64_t>(acf[want]));
  return want;
}

/// `period` bins per cycle, the first quarter (at least one bin) on.
std::vector<double> square_wave(std::size_t period, std::size_t bins) {
  const std::size_t on = std::max<std::size_t>(1, period / 4);
  std::vector<double> xs;
  for (std::size_t i = 0; i < bins; ++i) xs.push_back(i % period < on ? 1.0 : 0.0);
  return xs;
}

TEST(AutocorrelationTest, ZeroLagIsOne) {
  // The oracle is normalised, so the lags compared against it are too.
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(std::sin(i * 0.3));
  const auto acf = full_autocorrelation(xs, 20);
  ASSERT_FALSE(acf.empty());
  EXPECT_DOUBLE_EQ(acf[0], 1.0);
}

TEST(AutocorrelationTest, RecoversSinePeriod) {
  // Period of 20 bins.
  std::vector<double> xs;
  for (int i = 0; i < 400; ++i) xs.push_back(std::sin(2.0 * M_PI * i / 20.0));
  const auto peak = stats::autocorrelation_peak(xs, 60);
  ASSERT_TRUE(peak.has_value());
  EXPECT_NEAR(static_cast<double>(peak->lag), 20.0, 1.0);
}

TEST(AutocorrelationTest, RecoversSquareWavePeriod) {
  // ON-OFF-like square wave: 3 bins on, 9 bins off => period 12.
  const auto xs = square_wave(12, 600);
  const auto peak = stats::autocorrelation_peak(xs, 50);
  ASSERT_TRUE(peak.has_value());
  EXPECT_EQ(peak->lag, 12U);
  EXPECT_EQ(expect_matches_oracle(xs, 50, 0.1), 12U);
}

TEST(AutocorrelationTest, ConstantSeriesHasNoAutocorrelation) {
  const std::vector<double> xs(100, 5.0);
  EXPECT_FALSE(stats::autocorrelation_peak(xs, 10).has_value());
  EXPECT_EQ(expect_matches_oracle(xs, 10, 0.1), 0U);
  const std::vector<double> tiny{1.0, 2.0};
  EXPECT_FALSE(stats::autocorrelation_peak(tiny, 1).has_value());
  EXPECT_EQ(expect_matches_oracle(tiny, 1, 0.1), 0U);
}

TEST(AutocorrelationTest, WhiteNoiseHasNoDominantPeriod) {
  std::vector<double> xs;
  std::uint64_t state = 88172645463325252ULL;  // xorshift
  for (int i = 0; i < 1000; ++i) {
    state ^= state << 13U;
    state ^= state >> 7U;
    state ^= state << 17U;
    xs.push_back(static_cast<double>(state % 1000));
  }
  // No peak above 0.3 at any positive lag for white noise, so every lag is
  // computed.
  EXPECT_FALSE(stats::autocorrelation_peak(xs, 100, 0.3).has_value());
  EXPECT_EQ(expect_matches_oracle(xs, 100, 0.3), 0U);
}

TEST(AutocorrelationTest, PeakAtTheSearchBoundsMatchesTheOracle) {
  // Lag 1 can never be a peak (r(1) < r(0) = 1), so lag 2 is the first lag
  // the search accepts.
  EXPECT_EQ(expect_matches_oracle(square_wave(2, 400), 100, 0.1), 2U);
  EXPECT_EQ(expect_matches_oracle(square_wave(3, 400), 100, 0.1), 3U);
  // With max_lag = 2 the lag-2 peak has no right neighbour: rejected.
  EXPECT_EQ(expect_matches_oracle(square_wave(2, 400), 2, 0.1), 0U);
  // A peak at max_lag - 1 still has its right neighbour; one at max_lag
  // does not.
  EXPECT_EQ(expect_matches_oracle(square_wave(12, 600), 13, 0.1), 12U);
  EXPECT_EQ(expect_matches_oracle(square_wave(12, 600), 12, 0.1), 0U);
  // A flat top: over this zero-mean series the lag sums are exact integers
  // and r(4) == r(5); the peak is the first lag of the plateau.
  const std::vector<double> plateau{3.0, 0.0, -3.0, 0.0, 2.0, 0.0, 0.0, -2.0};
  EXPECT_EQ(expect_matches_oracle(plateau, 7, 0.1), 4U);
  // A max_lag past the series is clamped to n - 1, with the same bounds.
  EXPECT_EQ(expect_matches_oracle(square_wave(12, 14), 1000, 0.1), 12U);
  EXPECT_EQ(expect_matches_oracle(square_wave(12, 13), 1000, 0.1), 0U);
}

TEST(AutocorrelationTest, PeakMatchesTheFullLagOracleOnSeededSeries) {
  // Noisy square waves (which peak) and smoothed random walks (which mostly
  // do not), at every length from under 4 bins up, lags past the series and
  // thresholds either side of the default.
  sim::Rng rng{20260421};
  std::size_t peaks = 0;
  std::size_t no_peaks = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    std::vector<double> xs;
    if (trial % 2 == 0) {
      const auto period = static_cast<std::size_t>(rng.uniform_int(2, 40));
      const double noise = rng.uniform(0.0, 0.8);
      for (double x : square_wave(period, n)) xs.push_back(x + rng.uniform(-noise, noise));
    } else {
      double level = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        level = 0.8 * level + rng.uniform(-1.0, 1.0);
        xs.push_back(level);
      }
    }
    const auto max_lag = static_cast<std::size_t>(rng.uniform_int(0, 320));
    const double threshold = std::array{0.0, 0.1, 0.3}[static_cast<std::size_t>(trial % 3)];
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n " << n << " max_lag " << max_lag);
    (expect_matches_oracle(xs, max_lag, threshold) == 0 ? no_peaks : peaks) += 1;
  }
  // Both outcomes are exercised.
  EXPECT_GT(peaks, 100U);
  EXPECT_GT(no_peaks, 50U);
}

// ------------------------------------------------------------- periodicity

PacketTrace paced_trace(double cycle_s, double on_s, std::uint32_t payload, double t_end) {
  PacketTrace trace;
  for (double cycle_start = 5.0; cycle_start < t_end; cycle_start += cycle_s) {
    for (double t = cycle_start; t < cycle_start + on_s; t += 0.002) {
      PacketRecord r;
      r.t_s = t;
      r.direction = net::Direction::kDown;
      r.payload_bytes = payload;
      r.connection_id = 1;
      trace.packets.push_back(r);
    }
  }
  // A dense buffering burst up front.
  for (double t = 0.0; t < 2.0; t += 0.001) {
    PacketRecord r;
    r.t_s = t;
    r.direction = net::Direction::kDown;
    r.payload_bytes = payload;
    r.connection_id = 1;
    trace.packets.insert(trace.packets.begin(), r);
  }
  std::sort(trace.packets.begin(), trace.packets.end(),
            [](const PacketRecord& a, const PacketRecord& b) { return a.t_s < b.t_s; });
  return trace;
}

TEST(PeriodicityTest, RecoversCycleDuration) {
  const auto trace = paced_trace(2.0, 0.1, 1460, 120.0);
  analysis::PeriodicityOptions opts;
  opts.steady_start_s = 4.0;
  const auto result = analysis::estimate_cycle_period(trace, opts);
  ASSERT_TRUE(result.periodic);
  EXPECT_NEAR(result.period_s, 2.0, 0.1);
  EXPECT_GT(result.correlation, 0.3);
}

TEST(PeriodicityTest, AgreesWithOnOffAnalysis) {
  const auto trace = paced_trace(1.0, 0.05, 1460, 100.0);
  const auto onoff = analysis::analyze_on_off(trace);
  ASSERT_GT(onoff.on_periods.size(), 10U);
  const double onoff_cycle = (onoff.on_periods.back().start_s - onoff.on_periods[1].start_s) /
                             static_cast<double>(onoff.on_periods.size() - 2);
  const auto periodicity = analysis::estimate_cycle_period(trace);
  ASSERT_TRUE(periodicity.periodic);
  EXPECT_NEAR(periodicity.period_s, onoff_cycle, 0.15);
}

TEST(PeriodicityTest, BulkTraceIsNotPeriodic) {
  PacketTrace trace;
  for (double t = 0.0; t < 60.0; t += 0.001) {
    PacketRecord r;
    r.t_s = t;
    r.direction = net::Direction::kDown;
    r.payload_bytes = 1460;
    trace.packets.push_back(r);
  }
  analysis::PeriodicityOptions opts;
  opts.steady_start_s = 1.0;
  const auto result = analysis::estimate_cycle_period(trace, opts);
  EXPECT_FALSE(result.periodic);
}

TEST(PeriodicityTest, EmptyTraceAndValidation) {
  EXPECT_FALSE(analysis::estimate_cycle_period(PacketTrace{}).periodic);
  analysis::PeriodicityOptions bad;
  bad.bin_s = 0.0;
  EXPECT_THROW((void)analysis::estimate_cycle_period(PacketTrace{}, bad), std::invalid_argument);
}

TEST(PeriodicityTest, HostileTimestampCannotGrowTheSeries) {
  // One record ~17 years past the rest would need a 10^10-bin series; the
  // series is bounded by the records binned, so the trace is simply not
  // periodic.
  auto trace = paced_trace(2.0, 0.1, 1460, 120.0);
  ASSERT_TRUE(analysis::estimate_cycle_period(trace).periodic);
  PacketRecord far = trace.packets.back();
  far.t_s = static_cast<double>(0x20000000U);
  trace.packets.push_back(far);
  const auto result = analysis::estimate_cycle_period(trace);
  EXPECT_FALSE(result.periodic);
  EXPECT_EQ(result.bins_analysed, 0U);
}

TEST(PeriodicityTest, RecordsPastTheBoundSoFarStillCount) {
  // Moving the last record to the front puts it past the bound the first
  // records allow; it must still land in its bin once later records raise
  // the bound, so the estimate is independent of record order.
  analysis::PeriodicityOptions opts;
  opts.steady_start_s = 4.0;
  opts.bin_s = 0.002;
  opts.max_period_s = 4.0;
  const auto sorted = paced_trace(2.0, 0.1, 1460, 80.0);
  auto reordered = sorted;
  std::rotate(reordered.packets.begin(), reordered.packets.end() - 1, reordered.packets.end());
  const double span_bins = (sorted.packets.back().t_s - 4.0) / opts.bin_s;
  ASSERT_GT(span_bins, static_cast<double>(analysis::PeriodicityAccumulator::max_bins(1)));

  const auto want = analysis::estimate_cycle_period(sorted, opts);
  const auto got = analysis::estimate_cycle_period(reordered, opts);
  ASSERT_GT(want.bins_analysed, 0U);
  EXPECT_EQ(got.bins_analysed, want.bins_analysed);
  EXPECT_EQ(got.periodic, want.periodic);
  EXPECT_EQ(got.period_s, want.period_s);
  EXPECT_EQ(got.correlation, want.correlation);
}

TEST(PeriodicityTest, PacedCycleGroundTruth) {
  // 64 kB at 1.25 x 1 Mbps: 0.419 s.
  EXPECT_NEAR(analysis::paced_cycle_duration_s(64 * 1024, 1.25, 1e6), 0.419, 0.001);
  EXPECT_THROW((void)analysis::paced_cycle_duration_s(0, 1.25, 1e6), std::invalid_argument);
}

}  // namespace
}  // namespace vstream
