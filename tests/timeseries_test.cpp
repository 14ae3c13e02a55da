// Tests for rate binning, autocorrelation, and the ON-OFF periodicity
// estimator built on them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/accumulators.hpp"
#include "analysis/periodicity.hpp"
#include "stats/timeseries.hpp"

namespace vstream {
namespace {

using capture::PacketRecord;
using capture::PacketTrace;

TEST(RateBinnerTest, BinsAndRates) {
  stats::RateBinner binner{0.0, 10.0, 1.0};
  binner.add(0.5, 100.0);
  binner.add(0.9, 50.0);
  binner.add(5.5, 200.0);
  binner.add(-1.0, 999.0);  // before window: ignored
  binner.add(10.5, 999.0);  // after window: ignored
  const auto series = binner.series();
  ASSERT_EQ(series.size(), 10U);
  EXPECT_DOUBLE_EQ(series.values[0], 150.0);
  EXPECT_DOUBLE_EQ(series.values[5], 200.0);
  EXPECT_DOUBLE_EQ(series.values[9], 0.0);
  EXPECT_DOUBLE_EQ(series.t_at(3), 3.0);
}

TEST(RateBinnerTest, RateScalesWithBinWidth) {
  stats::RateBinner binner{0.0, 10.0, 0.5};
  binner.add(0.1, 100.0);
  const auto series = binner.series();
  EXPECT_DOUBLE_EQ(series.values[0], 200.0);  // 100 units / 0.5 s
}

TEST(RateBinnerTest, ValidatesArguments) {
  EXPECT_THROW((stats::RateBinner{0.0, 10.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((stats::RateBinner{5.0, 5.0, 1.0}), std::invalid_argument);
}

TEST(AutocorrelationTest, ZeroLagIsOne) {
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(std::sin(i * 0.3));
  const auto acf = stats::autocorrelation(xs, 20);
  ASSERT_FALSE(acf.empty());
  EXPECT_DOUBLE_EQ(acf[0], 1.0);
}

TEST(AutocorrelationTest, RecoversSinePeriod) {
  // Period of 20 bins.
  std::vector<double> xs;
  for (int i = 0; i < 400; ++i) xs.push_back(std::sin(2.0 * M_PI * i / 20.0));
  const auto acf = stats::autocorrelation(xs, 60);
  const auto period = stats::dominant_period_bins(acf);
  EXPECT_NEAR(static_cast<double>(period), 20.0, 1.0);
}

TEST(AutocorrelationTest, RecoversSquareWavePeriod) {
  // ON-OFF-like square wave: 3 bins on, 9 bins off => period 12.
  std::vector<double> xs;
  for (int i = 0; i < 600; ++i) xs.push_back((i % 12) < 3 ? 1.0 : 0.0);
  const auto acf = stats::autocorrelation(xs, 50);
  EXPECT_EQ(stats::dominant_period_bins(acf), 12U);
}

TEST(AutocorrelationTest, ConstantSeriesHasNoAutocorrelation) {
  const std::vector<double> xs(100, 5.0);
  EXPECT_TRUE(stats::autocorrelation(xs, 10).empty());
  const std::vector<double> tiny{1.0, 2.0};
  EXPECT_TRUE(stats::autocorrelation(tiny, 1).empty());
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
  const auto acf = stats::autocorrelation(xs, 100);
  // No peak above 0.3 at any positive lag for white noise.
  EXPECT_EQ(stats::dominant_period_bins(acf, 0.3), 0U);
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
