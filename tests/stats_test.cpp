// Unit and property tests for the statistics toolkit.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "stats/cdf.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"

namespace vstream::stats {
namespace {

TEST(DescriptiveTest, MeanAndVariance) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(DescriptiveTest, EmptyAndSingleton) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(variance(empty), 0.0);
  const std::vector<double> one{3.0};
  EXPECT_DOUBLE_EQ(mean(one), 3.0);
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
  EXPECT_THROW((void)min(empty), std::invalid_argument);
  EXPECT_THROW((void)quantile(empty, 0.5), std::invalid_argument);
}

TEST(DescriptiveTest, QuantileInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  EXPECT_THROW((void)quantile(xs, 1.5), std::invalid_argument);
}

TEST(DescriptiveTest, PerfectCorrelation) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + 2.0);
  }
  EXPECT_NEAR(pearson_correlation(xs, ys), 1.0, 1e-12);
  for (auto& y : ys) y = -y;
  EXPECT_NEAR(pearson_correlation(xs, ys), -1.0, 1e-12);
}

TEST(DescriptiveTest, ConstantSeriesHasZeroCorrelation) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> ys{5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(pearson_correlation(xs, ys), 0.0);
}

TEST(DescriptiveTest, CorrelationSizeMismatchThrows) {
  const std::vector<double> xs{1.0, 2.0};
  const std::vector<double> ys{1.0};
  EXPECT_THROW((void)pearson_correlation(xs, ys), std::invalid_argument);
}

TEST(OnlineStatsTest, MatchesBatchComputation) {
  std::mt19937 gen{1234};
  std::normal_distribution<double> d{10.0, 3.0};
  std::vector<double> xs;
  OnlineStats acc;
  for (int i = 0; i < 5000; ++i) {
    const double x = d(gen);
    xs.push_back(x);
    acc.add(x);
  }
  EXPECT_NEAR(acc.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(acc.variance(), variance(xs), 1e-6);
  EXPECT_DOUBLE_EQ(acc.min(), min(xs));
  EXPECT_DOUBLE_EQ(acc.max(), max(xs));
  EXPECT_EQ(acc.count(), xs.size());
}

TEST(OnlineStatsTest, MergeEquivalentToCombined) {
  std::mt19937 gen{99};
  std::uniform_real_distribution<double> d{0.0, 1.0};
  OnlineStats a;
  OnlineStats b;
  OnlineStats all;
  for (int i = 0; i < 1000; ++i) {
    const double x = d(gen);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(OnlineStatsTest, MergeWithEmpty) {
  OnlineStats a;
  a.add(1.0);
  a.add(2.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2U);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2U);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(CdfTest, EvaluatesStepFunction) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const EmpiricalCdf cdf{xs};
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(CdfTest, InverseIsMonotone) {
  std::mt19937 gen{5};
  std::exponential_distribution<double> d{1.0};
  EmpiricalCdf cdf;
  for (int i = 0; i < 1000; ++i) cdf.add(d(gen));
  double prev = cdf.inverse(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double x = cdf.inverse(q);
    EXPECT_GE(x, prev);
    prev = x;
  }
}

TEST(CdfTest, InverseRoundTrip) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
  const EmpiricalCdf cdf{xs};
  EXPECT_DOUBLE_EQ(cdf.inverse(0.0), 10.0);
  EXPECT_DOUBLE_EQ(cdf.inverse(1.0), 50.0);
  EXPECT_DOUBLE_EQ(cdf.inverse(0.5), 30.0);
}

TEST(CdfTest, PointsCoverAllSamples) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  const EmpiricalCdf cdf{xs};
  const auto pts = cdf.points();
  ASSERT_EQ(pts.size(), 3U);
  EXPECT_DOUBLE_EQ(pts.front().x, 1.0);
  EXPECT_DOUBLE_EQ(pts.back().x, 3.0);
  EXPECT_DOUBLE_EQ(pts.back().f, 1.0);
}

TEST(CdfTest, SampledGridHasRequestedResolution) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const EmpiricalCdf cdf{xs};
  const auto grid = cdf.sampled(0.0, 4.0, 5);
  ASSERT_EQ(grid.size(), 5U);
  EXPECT_DOUBLE_EQ(grid.front().x, 0.0);
  EXPECT_DOUBLE_EQ(grid.back().x, 4.0);
  EXPECT_DOUBLE_EQ(grid.front().f, 0.0);
  EXPECT_DOUBLE_EQ(grid.back().f, 1.0);
}

TEST(CdfTest, EmptyCdfThrows) {
  const EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_THROW((void)cdf.at(1.0), std::logic_error);
  EXPECT_THROW((void)cdf.inverse(0.5), std::logic_error);
}

TEST(HistogramTest, BinsAndOverflow) {
  Histogram h{0.0, 10.0, 10};
  h.add(-1.0);
  h.add(0.5);
  h.add(5.5);
  h.add(9.99);
  h.add(10.0);
  h.add(42.0);
  EXPECT_EQ(h.underflow(), 1U);
  EXPECT_EQ(h.overflow(), 2U);
  EXPECT_EQ(h.total(), 6U);
  EXPECT_EQ(h.count_in_bin(0), 1U);
  EXPECT_EQ(h.count_in_bin(5), 1U);
  EXPECT_EQ(h.count_in_bin(9), 1U);
}

TEST(HistogramTest, ModeFindsPeak) {
  Histogram h{0.0, 100.0, 10};
  for (int i = 0; i < 50; ++i) h.add(64.0 + (i % 3));
  for (int i = 0; i < 5; ++i) h.add(20.0);
  EXPECT_NEAR(h.mode(), 65.0, 5.0);
}

TEST(HistogramTest, InvalidConstruction) {
  EXPECT_THROW((Histogram{0.0, 1.0, 0}), std::invalid_argument);
  EXPECT_THROW((Histogram{1.0, 1.0, 4}), std::invalid_argument);
}

TEST(HistogramTest, RenderProducesLinePerBin) {
  Histogram h{0.0, 4.0, 4};
  h.add(1.0);
  h.add(1.2);
  h.add(3.0);
  const std::string art = h.render(10);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
  EXPECT_NE(art.find('#'), std::string::npos);
}

// Property sweep: quantile(q) of a uniform grid is close to q itself.
class QuantileProperty : public ::testing::TestWithParam<double> {};

TEST_P(QuantileProperty, UniformGridQuantileMatches) {
  std::vector<double> xs;
  for (int i = 0; i <= 1000; ++i) xs.push_back(static_cast<double>(i) / 1000.0);
  const double q = GetParam();
  EXPECT_NEAR(quantile(xs, q), q, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Quantiles, QuantileProperty,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0));

// Property: CDF at its own inverse returns at least q.
class CdfInverseProperty : public ::testing::TestWithParam<double> {};

TEST_P(CdfInverseProperty, AtInverseCoversQ) {
  std::mt19937 gen{77};
  std::lognormal_distribution<double> d{0.0, 1.0};
  EmpiricalCdf cdf;
  for (int i = 0; i < 500; ++i) cdf.add(d(gen));
  const double q = GetParam();
  EXPECT_GE(cdf.at(cdf.inverse(q)) + 1e-9, q);
}

INSTANTIATE_TEST_SUITE_P(InverseSweep, CdfInverseProperty,
                         ::testing::Values(0.05, 0.2, 0.5, 0.8, 0.95));

}  // namespace
}  // namespace vstream::stats
