// Tests for ON/OFF cycle detection, strategy classification and the
// ack-clock estimator — the paper's measurement methodology.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/ack_clock.hpp"
#include "analysis/onoff.hpp"
#include "analysis/strategy.hpp"

namespace vstream::analysis {
namespace {

using capture::PacketRecord;
using capture::PacketTrace;
using net::Direction;
using net::TcpFlag;

void add_down(PacketTrace& trace, double t, std::uint32_t payload, std::uint64_t conn = 1,
              bool retx = false) {
  PacketRecord r;
  r.t_s = t;
  r.direction = Direction::kDown;
  r.connection_id = conn;
  r.payload_bytes = payload;
  r.flags = TcpFlag::kAck;
  r.is_retransmission = retx;
  trace.packets.push_back(r);
}

void add_up(PacketTrace& trace, double t, std::uint64_t window, TcpFlag flags = TcpFlag::kAck,
            std::uint64_t conn = 1) {
  PacketRecord r;
  r.t_s = t;
  r.direction = Direction::kUp;
  r.connection_id = conn;
  r.window_bytes = window;
  r.flags = flags;
  trace.packets.push_back(r);
}

/// Synthesise a paced trace: a buffering burst, then `cycles` blocks of
/// `block_packets` packets with `off_s` idle between them.
PacketTrace make_paced_trace(std::size_t burst_packets, std::size_t cycles,
                             std::size_t block_packets, double off_s,
                             std::uint32_t payload = 1460) {
  PacketTrace trace;
  double t = 0.0;
  for (std::size_t i = 0; i < burst_packets; ++i) {
    add_down(trace, t, payload);
    t += 0.001;
  }
  for (std::size_t c = 0; c < cycles; ++c) {
    t += off_s;
    for (std::size_t i = 0; i < block_packets; ++i) {
      add_down(trace, t, payload);
      t += 0.001;
    }
  }
  return trace;
}

TEST(OnOffTest, DetectsCyclesAndBlocks) {
  const auto trace = make_paced_trace(100, 5, 10, 0.5);
  const auto a = analyze_on_off(trace);
  EXPECT_TRUE(a.has_steady_state());
  ASSERT_EQ(a.on_periods.size(), 6U);
  EXPECT_EQ(a.off_durations_s.size(), 5U);
  EXPECT_EQ(a.buffering_bytes, 100U * 1460);
  ASSERT_EQ(a.block_sizes_bytes.size(), 5U);
  for (const double b : a.block_sizes_bytes) EXPECT_DOUBLE_EQ(b, 10.0 * 1460);
  EXPECT_NEAR(a.median_off_s(), 0.5, 0.02);
}

TEST(OnOffTest, NoGapsMeansNoSteadyState) {
  const auto trace = make_paced_trace(1000, 0, 0, 0.0);
  const auto a = analyze_on_off(trace);
  EXPECT_FALSE(a.has_steady_state());
  EXPECT_EQ(a.buffering_bytes, 1000U * 1460);
  EXPECT_TRUE(a.block_sizes_bytes.empty());
}

TEST(OnOffTest, GapThresholdControlsSplitting) {
  const auto trace = make_paced_trace(10, 3, 10, 0.2);
  OnOffOptions coarse;
  coarse.gap_threshold_s = 0.5;  // gaps of 0.2 s are invisible
  EXPECT_FALSE(analyze_on_off(trace, coarse).has_steady_state());
  OnOffOptions fine;
  fine.gap_threshold_s = 0.1;
  EXPECT_TRUE(analyze_on_off(trace, fine).has_steady_state());
}

TEST(OnOffTest, ProbePacketsDoNotSplitOffPeriods) {
  auto trace = make_paced_trace(100, 2, 10, 1.0);
  // Inject 1-byte zero-window probes inside the OFF periods.
  add_down(trace, 0.35, 1);
  add_down(trace, 0.65, 1);
  std::sort(trace.packets.begin(), trace.packets.end(),
            [](const PacketRecord& a, const PacketRecord& b) { return a.t_s < b.t_s; });
  const auto a = analyze_on_off(trace);
  EXPECT_EQ(a.on_periods.size(), 3U);  // probes did not create ON periods
  // ...but their bytes still count toward the total.
  EXPECT_EQ(a.total_bytes, 100U * 1460 + 2U * 10 * 1460 + 2U);
}

TEST(OnOffTest, AccumulationRatioFromSteadyRate) {
  // 10 blocks of 64 kB every 0.5 s => steady rate ~= 1.05 Mbps.
  PacketTrace trace;
  double t = 0.0;
  for (int i = 0; i < 50; ++i) {
    add_down(trace, t, 1460);
    t += 0.0001;
  }
  for (int c = 0; c < 20; ++c) {
    t += 0.5;
    for (int i = 0; i < 45; ++i) {  // ~64 kB
      add_down(trace, t, 1460);
      t += 0.0001;
    }
  }
  const auto a = analyze_on_off(trace);
  ASSERT_TRUE(a.has_steady_state());
  const double steady = a.steady_rate_bps;
  EXPECT_NEAR(steady, 45 * 1460 * 8 / 0.5, steady * 0.1);
  EXPECT_NEAR(a.accumulation_ratio(steady / 1.25), 1.25, 0.01);
  EXPECT_THROW((void)a.accumulation_ratio(0.0), std::invalid_argument);
}

TEST(OnOffTest, BufferedPlaybackSeconds) {
  const auto trace = make_paced_trace(100, 2, 10, 0.5);
  const auto a = analyze_on_off(trace);
  // 100 * 1460 bytes at 1 Mbps => 1.168 s of playback.
  EXPECT_NEAR(a.buffered_playback_s(1e6), 100 * 1460 * 8.0 / 1e6, 1e-9);
}

TEST(OnOffTest, EmptyTraceYieldsEmptyAnalysis) {
  const auto a = analyze_on_off(PacketTrace{});
  EXPECT_TRUE(a.on_periods.empty());
  EXPECT_EQ(a.total_bytes, 0U);
  EXPECT_FALSE(a.has_steady_state());
  EXPECT_DOUBLE_EQ(a.median_block_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(a.median_off_s(), 0.0);
}

TEST(OnOffTest, InvalidThresholdThrows) {
  OnOffOptions bad;
  bad.gap_threshold_s = 0.0;
  EXPECT_THROW((void)analyze_on_off(PacketTrace{}, bad), std::invalid_argument);
}

TEST(OnOffTest, OffTimeFraction) {
  const auto trace = make_paced_trace(10, 4, 10, 1.0);
  const auto a = analyze_on_off(trace);
  EXPECT_GT(a.off_time_fraction(), 0.8);  // mostly idle
}

TEST(ZeroWindowTest, CountsEpisodesNotPackets) {
  PacketTrace trace;
  add_up(trace, 0.1, 65536);
  add_up(trace, 0.2, 0);
  add_up(trace, 0.3, 0);  // same episode
  add_up(trace, 0.4, 65536);
  add_up(trace, 0.5, 0);  // second episode
  EXPECT_EQ(count_zero_window_episodes(trace), 2U);
  EXPECT_EQ(count_zero_window_episodes(PacketTrace{}), 0U);
}

TEST(StrategyTest, BulkClassifiesAsNo) {
  const auto trace = make_paced_trace(5000, 0, 0, 0.0);
  const auto a = analyze_on_off(trace);
  const auto d = classify_strategy(a, trace);
  EXPECT_EQ(d.strategy, Strategy::kNoOnOff);
}

TEST(StrategyTest, RareLossStallsStillClassifyAsNo) {
  // A bulk transfer with two short loss-recovery stalls: OFF fraction tiny.
  PacketTrace trace;
  double t = 0.0;
  for (int i = 0; i < 30000; ++i) {
    add_down(trace, t, 1460);
    t += 0.001;
    if (i == 10000 || i == 20000) t += 0.3;  // RTO-ish stall
  }
  const auto a = analyze_on_off(trace);
  EXPECT_TRUE(a.has_steady_state());  // stalls look like OFF periods...
  const auto d = classify_strategy(a, trace);
  EXPECT_EQ(d.strategy, Strategy::kNoOnOff);  // ...but the fraction saves us
}

TEST(StrategyTest, SmallBlocksClassifyAsShort) {
  const auto trace = make_paced_trace(500, 20, 45, 0.5);  // 64 kB blocks
  const auto a = analyze_on_off(trace);
  const auto d = classify_strategy(a, trace);
  EXPECT_EQ(d.strategy, Strategy::kShortOnOff);
  EXPECT_NEAR(d.median_block_bytes, 45 * 1460, 1.0);
}

TEST(StrategyTest, LargeBlocksClassifyAsLong) {
  const auto trace = make_paced_trace(500, 6, 3000, 30.0);  // ~4.4 MB blocks
  const auto a = analyze_on_off(trace);
  const auto d = classify_strategy(a, trace);
  EXPECT_EQ(d.strategy, Strategy::kLongOnOff);
}

TEST(StrategyTest, MixedBlocksOverManyConnectionsClassifyAsMultiple) {
  PacketTrace trace;
  double t = 0.0;
  std::uint64_t conn = 1;
  // Buffering burst.
  for (int i = 0; i < 1000; ++i) {
    add_down(trace, t, 1460, conn);
    t += 0.0005;
  }
  for (int c = 0; c < 12; ++c) {
    t += 1.0;
    ++conn;
    const int packets = (c % 6 == 0) ? 5000 : 300;  // periodic big re-buffer
    for (int i = 0; i < packets; ++i) {
      add_down(trace, t, 1460, conn);
      t += 0.0005;
    }
  }
  const auto a = analyze_on_off(trace);
  const auto d = classify_strategy(a, trace);
  EXPECT_EQ(d.strategy, Strategy::kMultiple);
  EXPECT_GE(d.connections, 5U);
}

TEST(StrategyTest, BoundaryIsTwoPointFiveMegabytes) {
  EXPECT_DOUBLE_EQ(kShortLongBoundaryBytes, 2.5 * 1024 * 1024);
  EXPECT_EQ(to_string(Strategy::kNoOnOff), "No");
  EXPECT_EQ(to_string(Strategy::kShortOnOff), "Short");
  EXPECT_EQ(to_string(Strategy::kLongOnOff), "Long");
  EXPECT_EQ(to_string(Strategy::kMultiple), "Multiple");
}

TEST(AckClockTest, HandshakeRttEstimation) {
  PacketTrace trace;
  add_up(trace, 1.0, 65536, TcpFlag::kSyn);
  PacketRecord synack;
  synack.t_s = 1.02;
  synack.direction = Direction::kDown;
  synack.connection_id = 1;
  synack.flags = TcpFlag::kSyn | TcpFlag::kAck;
  trace.packets.push_back(synack);
  const auto rtt = estimate_handshake_rtt(trace);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_NEAR(*rtt, 0.02, 1e-9);
}

TEST(AckClockTest, NoHandshakeReturnsNullopt) {
  const auto trace = make_paced_trace(10, 2, 5, 0.5);
  EXPECT_FALSE(estimate_handshake_rtt(trace).has_value());
}

TEST(AckClockTest, FullBlockInFirstRttMeansNoAckClock) {
  // Blocks sent back-to-back: all 45 packets within 45 ms < RTT 60 ms.
  const auto trace = make_paced_trace(100, 10, 45, 0.5);
  const auto a = analyze_on_off(trace);
  AckClockOptions opts;
  opts.rtt_s = 0.060;
  const auto samples = first_rtt_bytes(trace, a, opts);
  ASSERT_EQ(samples.size(), 10U);
  for (const double s : samples) EXPECT_DOUBLE_EQ(s, 45.0 * 1460);
}

TEST(AckClockTest, SlowStartDeliversLessInFirstRtt) {
  // Packets spaced 10 ms apart: only ~2 arrive within the 20 ms RTT window.
  PacketTrace trace;
  double t = 0.0;
  for (int i = 0; i < 20; ++i) {
    add_down(trace, t, 1460);
    t += 0.001;
  }
  t += 1.0;
  for (int i = 0; i < 10; ++i) {
    add_down(trace, t, 1460);
    t += 0.010;
  }
  const auto a = analyze_on_off(trace);
  AckClockOptions opts;
  opts.rtt_s = 0.020;
  const auto samples = first_rtt_bytes(trace, a, opts);
  ASSERT_EQ(samples.size(), 1U);
  EXPECT_LE(samples[0], 3.0 * 1460);
}

TEST(AckClockTest, WindowsLongerThanACycleOverlap) {
  // An RTT spanning several cycles: each window runs into the next ON
  // periods, and must hold every down data byte in [start, start + rtt).
  auto trace = make_paced_trace(50, 12, 20, 0.3);
  add_up(trace, 0.5, 65536);  // up traffic interleaved, never counted
  std::stable_sort(trace.packets.begin(), trace.packets.end(),
                   [](const PacketRecord& a, const PacketRecord& b) { return a.t_s < b.t_s; });
  const auto a = analyze_on_off(trace);
  AckClockOptions opts;
  opts.rtt_s = 1.1;
  const auto samples = first_rtt_bytes(trace, a, opts);
  ASSERT_EQ(samples.size(), 12U);
  for (std::size_t i = 1; i < a.on_periods.size(); ++i) {
    const double start = a.on_periods[i].start_s;
    double expected = 0.0;
    for (const auto& p : trace.packets) {
      if (p.direction == Direction::kDown && p.t_s >= start && p.t_s < start + *opts.rtt_s) {
        expected += p.payload_bytes;
      }
    }
    EXPECT_DOUBLE_EQ(samples[i - 1], expected) << "window " << i;
  }
  EXPECT_GT(samples.front(), 20.0 * 1460);  // really overlapping
}

TEST(AckClockTest, ShortOffPeriodsAreExcluded) {
  const auto trace = make_paced_trace(100, 5, 45, 0.05);  // 50 ms OFFs
  OnOffOptions onoff;
  onoff.gap_threshold_s = 0.02;
  const auto a = analyze_on_off(trace, onoff);
  AckClockOptions opts;
  opts.rtt_s = 0.02;
  opts.min_preceding_off_s = 0.2;  // OFFs shorter than this do not qualify
  EXPECT_TRUE(first_rtt_bytes(trace, a, opts).empty());
}

TEST(AckClockTest, MissingRttThrows) {
  const auto trace = make_paced_trace(10, 2, 5, 0.5);
  const auto a = analyze_on_off(trace);
  EXPECT_THROW((void)first_rtt_bytes(trace, a), std::invalid_argument);
  AckClockOptions bad;
  bad.rtt_s = 0.0;
  EXPECT_THROW((void)first_rtt_bytes(trace, a, bad), std::invalid_argument);
}

}  // namespace
}  // namespace vstream::analysis
