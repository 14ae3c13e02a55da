// Tests for video metadata, container-header quirks, and dataset generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sim/rng.hpp"
#include "video/container_header.hpp"
#include "video/datasets.hpp"
#include "video/metadata.hpp"

namespace vstream::video {
namespace {

TEST(VideoMetaTest, SizeFromRateAndDuration) {
  VideoMeta v;
  v.encoding_bps = 1e6;
  v.duration_s = 80.0;
  EXPECT_EQ(v.size_bytes(), 10'000'000U);
  EXPECT_DOUBLE_EQ(v.encoding_mbps(), 1.0);
  EXPECT_EQ(v.size_bytes_at(2e6), 20'000'000U);
}

TEST(VideoMetaTest, ToStringCoversEnums) {
  EXPECT_EQ(to_string(Container::kFlash), "Flash");
  EXPECT_EQ(to_string(Container::kFlashHd), "Flash-HD");
  EXPECT_EQ(to_string(Container::kHtml5), "HTML5");
  EXPECT_EQ(to_string(Container::kSilverlight), "Silverlight");
  EXPECT_EQ(to_string(Resolution::k360p), "360p");
  EXPECT_EQ(to_string(Resolution::k720p), "720p");
}

TEST(ContainerHeaderTest, FlashDeclaresUsableRate) {
  VideoMeta v;
  v.container = Container::kFlash;
  v.encoding_bps = 1.3e6;
  v.duration_s = 200.0;
  const auto h = make_header(v);
  ASSERT_TRUE(h.declared_rate_bps.has_value());
  EXPECT_DOUBLE_EQ(*h.declared_rate_bps, 1.3e6);
  EXPECT_DOUBLE_EQ(resolve_encoding_rate(h, v.size_bytes()), 1.3e6);
}

TEST(ContainerHeaderTest, WebmHeaderHasInvalidRateEntry) {
  // The paper's WebM quirk: the frame-rate entry is invalid, so the rate
  // must be estimated from Content-Length / duration.
  VideoMeta v;
  v.container = Container::kHtml5;
  v.encoding_bps = 1.0e6;
  v.duration_s = 100.0;
  const auto h = make_header(v);
  EXPECT_FALSE(h.declared_rate_bps.has_value());
  const double est = resolve_encoding_rate(h, v.size_bytes());
  EXPECT_NEAR(est, 1.0e6, 1e3);
}

TEST(ContainerHeaderTest, EstimationNoiseScalesResult) {
  VideoMeta v;
  v.container = Container::kHtml5;
  v.encoding_bps = 1.0e6;
  v.duration_s = 100.0;
  const auto h = make_header(v);
  const double est = resolve_encoding_rate(h, v.size_bytes(), 1.2);
  EXPECT_NEAR(est, 1.2e6, 1e3);
}

TEST(ContainerHeaderTest, EstimatorValidatesInputs) {
  EXPECT_THROW((void)estimate_rate_from_content_length(1000, 0.0), std::invalid_argument);
  EXPECT_THROW((void)estimate_rate_from_content_length(1000, 10.0, 0.0), std::invalid_argument);
}

TEST(ContainerHeaderTest, SilverlightRateNotDeclared) {
  VideoMeta v;
  v.container = Container::kSilverlight;
  v.duration_s = 1200;
  v.encoding_bps = 3.6e6;
  EXPECT_FALSE(make_header(v).declared_rate_bps.has_value());
}

TEST(DatasetTest, PaperSizes) {
  sim::Rng rng{1};
  EXPECT_EQ(make_dataset(DatasetId::kYouFlash, rng, 0).size(), 5000U);
  EXPECT_EQ(make_dataset(DatasetId::kYouHd, rng, 0).size(), 2000U);
  EXPECT_EQ(make_dataset(DatasetId::kYouHtml, rng, 0).size(), 3000U);
  EXPECT_EQ(make_dataset(DatasetId::kNetPc, rng, 0).size(), 200U);
  EXPECT_EQ(make_dataset(DatasetId::kNetMob, rng, 0).size(), 50U);
}

TEST(DatasetTest, CountOverrideForQuickRuns) {
  sim::Rng rng{1};
  EXPECT_EQ(make_dataset(DatasetId::kYouFlash, rng, 25).size(), 25U);
}

TEST(DatasetTest, DeterministicPerSeed) {
  sim::Rng a{99};
  sim::Rng b{99};
  const auto d1 = make_dataset(DatasetId::kYouFlash, a, 50);
  const auto d2 = make_dataset(DatasetId::kYouFlash, b, 50);
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_DOUBLE_EQ(d1.videos[i].encoding_bps, d2.videos[i].encoding_bps);
    EXPECT_DOUBLE_EQ(d1.videos[i].duration_s, d2.videos[i].duration_s);
  }
}

TEST(DatasetTest, UniqueIds) {
  sim::Rng rng{3};
  const auto ds = make_dataset(DatasetId::kYouHd, rng, 200);
  std::set<std::string> ids;
  for (const auto& v : ds.videos) ids.insert(v.id);
  EXPECT_EQ(ids.size(), ds.size());
}

struct RangeSpec {
  DatasetId id;
  double lo_mbps;
  double hi_mbps;
  Container container;
};

// gtest prints a param into each listed test name; without this it would
// dump the struct's bytes, padding included.
void PrintTo(const RangeSpec& spec, std::ostream* os) { *os << to_string(spec.id); }

class DatasetRateRange : public ::testing::TestWithParam<RangeSpec> {};

TEST_P(DatasetRateRange, EncodingRatesWithinPaperRanges) {
  const auto spec = GetParam();
  sim::Rng rng{7};
  const auto ds = make_dataset(spec.id, rng, 400);
  for (const auto& v : ds.videos) {
    EXPECT_GE(v.encoding_bps, spec.lo_mbps * 1e6 * 0.999);
    EXPECT_LE(v.encoding_bps, spec.hi_mbps * 1e6 * 1.001);
    EXPECT_EQ(v.container, spec.container);
    EXPECT_GT(v.duration_s, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperRanges, DatasetRateRange,
    ::testing::Values(RangeSpec{DatasetId::kYouFlash, 0.2, 1.5, Container::kFlash},
                      RangeSpec{DatasetId::kYouHd, 0.2, 4.8, Container::kFlashHd},
                      RangeSpec{DatasetId::kYouHtml, 0.2, 2.5, Container::kHtml5},
                      RangeSpec{DatasetId::kYouMob, 0.2, 2.7, Container::kHtml5}),
    [](const ::testing::TestParamInfo<RangeSpec>& info) {
      return to_string(info.param.id);
    });

TEST(DatasetTest, NetflixVideosCarryFullLadder) {
  sim::Rng rng{11};
  const auto ds = make_dataset(DatasetId::kNetPc, rng, 20);
  for (const auto& v : ds.videos) {
    EXPECT_EQ(v.available_rates_bps, netflix_rate_ladder());
    EXPECT_GE(v.duration_s, 1200.0);
    EXPECT_LE(v.duration_s, 7200.0);
    EXPECT_EQ(v.container, Container::kSilverlight);
  }
}

TEST(DatasetTest, LaddersAreSortedAscending) {
  EXPECT_TRUE(std::is_sorted(netflix_rate_ladder().begin(), netflix_rate_ladder().end()));
  EXPECT_TRUE(std::is_sorted(netflix_ipad_ladder().begin(), netflix_ipad_ladder().end()));
  // The iPad ladder is a subset of the full ladder (paper's hypothesis).
  for (const double r : netflix_ipad_ladder()) {
    EXPECT_NE(std::find(netflix_rate_ladder().begin(), netflix_rate_ladder().end(), r),
              netflix_rate_ladder().end());
  }
  EXPECT_LT(netflix_ipad_ladder().size(), netflix_rate_ladder().size());
}

TEST(DatasetTest, YouTubeDurationsClippedAndPlausible) {
  sim::Rng rng{13};
  const auto ds = make_dataset(DatasetId::kYouFlash, rng, 1000);
  std::vector<double> durations;
  for (const auto& v : ds.videos) durations.push_back(v.duration_s);
  const double median = [&] {
    std::sort(durations.begin(), durations.end());
    return durations[durations.size() / 2];
  }();
  EXPECT_GT(median, 100.0);  // YouTube-like median of a few minutes
  EXPECT_LT(median, 600.0);
  EXPECT_GE(*std::min_element(durations.begin(), durations.end()), 30.0);
  EXPECT_LE(*std::max_element(durations.begin(), durations.end()), 3600.0);
}

TEST(DatasetTest, NamesRoundTrip) {
  EXPECT_EQ(to_string(DatasetId::kYouFlash), "YouFlash");
  EXPECT_EQ(to_string(DatasetId::kYouHd), "YouHD");
  EXPECT_EQ(to_string(DatasetId::kYouHtml), "YouHtml");
  EXPECT_EQ(to_string(DatasetId::kYouMob), "YouMob");
  EXPECT_EQ(to_string(DatasetId::kNetPc), "NetPC");
  EXPECT_EQ(to_string(DatasetId::kNetMob), "NetMob");
}

}  // namespace
}  // namespace vstream::video
