// Tests for the streamed sweep path: per-worker accumulators must aggregate
// exactly what the materializing path returns, and the order-independent
// sweep digest must be invariant across worker counts and process sharding
// — the property the sharded capacity planner's merge check rests on.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/parallel_sweep.hpp"
#include "runner/session_sweep.hpp"
#include "streaming/scenarios.hpp"
#include "streaming/session_builder.hpp"

namespace vstream::runner {
namespace {

/// Same shape as the ParallelSweep tests' sweep: short distinct sessions.
streaming::SessionConfig sweep_config(std::size_t i) {
  video::VideoMeta meta;
  meta.id = "streamed-sweep-test";
  meta.duration_s = 120.0;
  meta.encoding_bps = 1.0e6 + 1.0e5 * static_cast<double>(i % 7);
  meta.container = i % 2 == 0 ? video::Container::kFlash : video::Container::kHtml5;
  return streaming::SessionBuilder{}
      .vantage(net::Vantage::kResearch)
      .video(meta)
      .container(meta.container)
      .capture_duration_s(6.0)
      .seed(7000 + i)
      .build();
}

std::vector<streaming::SessionConfig> sweep_configs(std::size_t n) {
  std::vector<streaming::SessionConfig> configs;
  for (std::size_t i = 0; i < n; ++i) configs.push_back(sweep_config(i));
  return configs;
}

SweepAccumulator stream_all(const ParallelSweep& pool,
                            const std::vector<streaming::SessionConfig>& configs) {
  return run_sessions_streamed(pool, 0, configs.size(),
                               [&configs](std::size_t i) { return configs[i]; });
}

TEST(SweepDigestTest, OrderIndependentButIndexAndValueSensitive) {
  SweepDigest forward;
  forward.add(0, {111, 5});
  forward.add(1, {222, 6});
  SweepDigest backward;
  backward.add(1, {222, 6});
  backward.add(0, {111, 5});
  EXPECT_EQ(forward, backward);  // schedule order cannot matter

  SweepDigest swapped_index;
  swapped_index.add(1, {111, 5});
  swapped_index.add(0, {222, 6});
  EXPECT_NE(forward.combined, swapped_index.combined);  // index is part of the word

  SweepDigest different_value;
  different_value.add(0, {112, 5});
  different_value.add(1, {222, 6});
  EXPECT_NE(forward.combined, different_value.combined);
}

TEST(SessionSweepTest, StreamedAggregateMatchesMaterializedResults) {
  const auto configs = sweep_configs(6);
  const ParallelSweep pool{2};
  const SweepAccumulator streamed = stream_all(pool, configs);

  const auto results = pool.map<streaming::SessionResult>(
      configs.size(), [&configs](std::size_t i) { return streaming::run_session(configs[i]); });
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t connections = 0;
  std::size_t max_pending = 0;
  for (const auto& r : results) {
    bytes += r.bytes_downloaded;
    events += r.sim_events;
    connections += r.connections;
    max_pending = std::max(max_pending, r.sim_max_events_pending);
  }

  EXPECT_EQ(streamed.sessions, configs.size());
  EXPECT_EQ(streamed.digest.sessions, configs.size());
  EXPECT_EQ(streamed.bytes_downloaded, bytes);
  EXPECT_EQ(streamed.sim_events, events);
  EXPECT_EQ(streamed.connections, connections);
  EXPECT_EQ(streamed.max_events_pending, max_pending);
  EXPECT_GT(streamed.mean_download_rate_bps(), 0.0);
}

TEST(SessionSweepTest, StreamedDigestMatchesPerSessionFingerprints) {
  const auto configs = sweep_configs(5);
  const SweepAccumulator streamed = stream_all(ParallelSweep{2}, configs);

  // The streamed path must fingerprint each session exactly the way
  // fingerprint_session does (world digest + fold_outcome) — same words,
  // same XOR combine.
  SweepDigest expected;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expected.add(i, streaming::fingerprint_session(configs[i]));
  }
  EXPECT_EQ(streamed.digest, expected);
}

TEST(SessionSweepTest, DigestInvariantAcrossWorkerCountsAndSharding) {
  constexpr std::size_t kCount = 8;
  const auto make = [](std::size_t g) { return sweep_config(g); };

  const SweepAccumulator serial = run_sessions_streamed(ParallelSweep{1}, 0, kCount, make);
  const SweepAccumulator parallel = run_sessions_streamed(ParallelSweep{4}, 0, kCount, make);
  EXPECT_EQ(parallel.digest, serial.digest);
  EXPECT_EQ(parallel.sessions, serial.sessions);
  EXPECT_EQ(parallel.bytes_downloaded, serial.bytes_downloaded);
  EXPECT_EQ(parallel.sim_events, serial.sim_events);

  // Process sharding: contiguous halves, each carrying its global offset.
  SweepAccumulator merged = run_sessions_streamed(ParallelSweep{2}, 0, kCount / 2, make);
  const SweepAccumulator hi = run_sessions_streamed(ParallelSweep{3}, kCount / 2,
                                                    kCount - kCount / 2, make);
  merged.merge(hi);
  EXPECT_EQ(merged.digest, serial.digest);
  EXPECT_EQ(merged.sessions, serial.sessions);
  EXPECT_EQ(merged.bytes_downloaded, serial.bytes_downloaded);
  EXPECT_EQ(merged.sim_events, serial.sim_events);
  EXPECT_EQ(merged.rebuffer_count, serial.rebuffer_count);
  EXPECT_EQ(merged.max_events_pending, serial.max_events_pending);
}

TEST(SessionSweepTest, ShardJsonRoundTrips) {
  const SweepAccumulator out = run_sessions_streamed(ParallelSweep{2}, 3, 4,
                                                     [](std::size_t g) { return sweep_config(g); });
  const std::string path = ::testing::TempDir() + "session_sweep_shard_test.json";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    const std::string json = out.to_json("round-trip", /*shard=*/1, /*shards=*/2,
                                         /*first=*/3, /*count=*/4);
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }

  std::size_t shard = 0;
  std::size_t shards = 0;
  std::size_t first = 0;
  std::size_t count = 0;
  const SweepAccumulator in = SweepAccumulator::from_json_file(path, shard, shards, first, count);
  std::remove(path.c_str());

  EXPECT_EQ(shard, 1u);
  EXPECT_EQ(shards, 2u);
  EXPECT_EQ(first, 3u);
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(in.digest, out.digest);
  EXPECT_EQ(in.sessions, out.sessions);
  EXPECT_EQ(in.bytes_downloaded, out.bytes_downloaded);
  EXPECT_EQ(in.sim_events, out.sim_events);
  EXPECT_EQ(in.connections, out.connections);
  EXPECT_EQ(in.rebuffer_count, out.rebuffer_count);
  EXPECT_EQ(in.fetch_retries, out.fetch_retries);
  EXPECT_EQ(in.interrupted_sessions, out.interrupted_sessions);
  EXPECT_EQ(in.max_events_pending, out.max_events_pending);
  // %.17g round-trips binary64 exactly — bit equality, not approximate.
  EXPECT_EQ(in.download_rate_bps_sum, out.download_rate_bps_sum);
  EXPECT_EQ(in.encoding_bps_estimated_sum, out.encoding_bps_estimated_sum);
  EXPECT_EQ(in.stall_time_s_sum, out.stall_time_s_sum);

  EXPECT_THROW(
      {
        std::size_t s0 = 0;
        std::size_t s1 = 0;
        std::size_t f0 = 0;
        std::size_t c0 = 0;
        (void)SweepAccumulator::from_json_file("/nonexistent/shard.json", s0, s1, f0, c0);
      },
      std::runtime_error);
}

/// Parse `json` as a shard payload; the error message, or "" if it parsed.
std::string shard_parse_error(const std::string& json) {
  const std::string path = ::testing::TempDir() + "session_sweep_bad_shard_test.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "cannot write " + path;
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::size_t shard = 0;
  std::size_t shards = 0;
  std::size_t first = 0;
  std::size_t count = 0;
  std::string error;
  try {
    (void)SweepAccumulator::from_json_file(path, shard, shards, first, count);
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  std::remove(path.c_str());
  return error;
}

std::string replaced(std::string text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(SessionSweepTest, ShardPayloadRejectsSignedAndNonFiniteFields) {
  const std::string good = SweepAccumulator{}.to_json("bad-fields", 0, 1, 0, 0);
  ASSERT_EQ(shard_parse_error(good), "");

  // A negative count would wrap to 2^64-1; the paired digest_sessions is
  // negated too, so only the sign check can catch it.
  const std::string negative = replaced(replaced(good, "\"sessions\":0", "\"sessions\":-1"),
                                        "\"digest_sessions\":0", "\"digest_sessions\":-1");
  ASSERT_NE(negative, good);
  EXPECT_NE(shard_parse_error(negative).find("\"sessions\" is not an integer"), std::string::npos)
      << shard_parse_error(negative);

  const std::string nan_sum = replaced(good, "\"stall_time_s_sum\":0", "\"stall_time_s_sum\":nan");
  ASSERT_NE(nan_sum, good);
  EXPECT_NE(shard_parse_error(nan_sum).find("\"stall_time_s_sum\" is not a number"),
            std::string::npos)
      << shard_parse_error(nan_sum);

  const std::string signed_hex =
      replaced(good, "\"digest\":\"0000000000000000\"", "\"digest\":\"-000000000000001\"");
  ASSERT_NE(signed_hex, good);
  EXPECT_NE(shard_parse_error(signed_hex).find("\"digest\" is not hex"), std::string::npos)
      << shard_parse_error(signed_hex);
}

TEST(SessionSweepTest, EmptySweepIsWellFormed) {
  const SweepAccumulator empty = run_sessions_streamed(
      ParallelSweep{4}, 0, 0, [](std::size_t) -> streaming::SessionConfig {
        throw std::logic_error{"must not be called"};
      });
  EXPECT_EQ(empty.sessions, 0u);
  EXPECT_EQ(empty.digest.combined, 0u);
  EXPECT_EQ(empty.mean_download_rate_bps(), 0.0);

  SweepAccumulator merged;
  merged.merge(empty);
  EXPECT_EQ(merged.sessions, 0u);
}

}  // namespace
}  // namespace vstream::runner
