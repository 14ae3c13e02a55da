// Tests for the zero-copy capture::TraceView: filter composition, skipping
// iteration, aggregate equivalence with an eagerly copied reference trace,
// and materialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "capture/trace.hpp"
#include "capture/trace_view.hpp"

namespace vstream {
namespace {

capture::PacketRecord rec(double t, net::Direction dir, std::uint8_t host, std::uint64_t conn,
                          std::uint32_t payload, bool retx = false,
                          std::uint64_t window = 65536) {
  capture::PacketRecord r;
  r.t_s = t;
  r.direction = dir;
  r.host = host;
  r.connection_id = conn;
  r.payload_bytes = payload;
  r.is_retransmission = retx;
  r.window_bytes = window;
  return r;
}

/// A small mixed trace: two hosts, three connections, both directions, one
/// retransmission, a window update at time-tie with a data packet.
capture::PacketTrace make_trace() {
  capture::PacketTrace trace;
  trace.label = "view-test";
  trace.encoding_bps = 1.25e6;
  trace.duration_s = 4.0;
  trace.packets = {
      rec(0.00, net::Direction::kUp, 0, 1, 0),
      rec(0.01, net::Direction::kDown, 0, 1, 1448),
      rec(0.01, net::Direction::kUp, 0, 1, 0, false, 32768),  // time tie
      rec(0.50, net::Direction::kDown, 1, 2, 900),            // auxiliary host
      rec(0.80, net::Direction::kDown, 0, 1, 1448, true),     // retransmission
      rec(1.20, net::Direction::kUp, 1, 2, 120),
      rec(2.00, net::Direction::kDown, 0, 7, 700),            // tagged cross-traffic
      rec(3.50, net::Direction::kDown, 0, 1, 1448),
  };
  return trace;
}

/// The reference a view must agree with: an eager copy of the records that
/// satisfy `keep`, with the trace's metadata.
template <typename Keep>
capture::PacketTrace copied(const capture::PacketTrace& trace, Keep keep) {
  capture::PacketTrace out;
  out.label = trace.label;
  out.encoding_bps = trace.encoding_bps;
  out.duration_s = trace.duration_s;
  std::copy_if(trace.packets.begin(), trace.packets.end(), std::back_inserter(out.packets), keep);
  return out;
}

capture::PacketTrace copied_host(const capture::PacketTrace& trace, std::uint8_t host) {
  return copied(trace, [host](const capture::PacketRecord& p) { return p.host == host; });
}

TEST(TraceViewTest, PassThroughMatchesTrace) {
  const auto trace = make_trace();
  const capture::TraceView view{trace};
  EXPECT_TRUE(view.filter().pass_through());
  EXPECT_EQ(view.count(), trace.packets.size());
  EXPECT_EQ(view.label(), trace.label);
  EXPECT_DOUBLE_EQ(view.encoding_bps(), trace.encoding_bps);
  EXPECT_DOUBLE_EQ(view.duration_s(), trace.duration_s);
}

TEST(TraceViewTest, HostFilterMatchesLegacyOnlyHost) {
  const auto trace = make_trace();
  const auto view = capture::TraceView{trace}.host(0);
  const auto legacy_trace = copied_host(trace, 0);
  const capture::TraceView legacy{legacy_trace};
  EXPECT_EQ(view.count(), legacy_trace.packets.size());
  EXPECT_EQ(view.down_payload_bytes(), legacy.down_payload_bytes());
  EXPECT_EQ(view.connection_count(), legacy.connection_count());
  EXPECT_DOUBLE_EQ(view.retransmission_fraction(), legacy.retransmission_fraction());
  for (const auto& p : view) EXPECT_EQ(p.host, 0);
}

TEST(TraceViewTest, DirectionFilterMatchesLegacyInDirection) {
  const auto trace = make_trace();
  const auto view = capture::TraceView{trace}.direction(net::Direction::kUp);
  const auto legacy = copied(trace, [](const capture::PacketRecord& p) {
                        return p.direction == net::Direction::kUp;
                      }).packets;
  ASSERT_EQ(view.count(), legacy.size());
  std::size_t i = 0;
  for (const auto& p : view) {
    EXPECT_EQ(p.t_s, legacy[i].t_s);
    EXPECT_EQ(p.direction, net::Direction::kUp);
    ++i;
  }
}

TEST(TraceViewTest, CombinatorsCompose) {
  const auto trace = make_trace();
  const auto view = capture::TraceView{trace}.host(0).direction(net::Direction::kDown);
  const auto expected = static_cast<std::size_t>(std::count_if(
      trace.packets.begin(), trace.packets.end(), [](const capture::PacketRecord& p) {
        return p.host == 0 && p.direction == net::Direction::kDown;
      }));
  EXPECT_EQ(view.count(), expected);
  for (const auto& p : view) {
    EXPECT_EQ(p.host, 0);
    EXPECT_EQ(p.direction, net::Direction::kDown);
  }
  // Narrowing never mutates the parent view.
  const auto parent = capture::TraceView{trace}.host(0);
  (void)parent.direction(net::Direction::kUp);
  EXPECT_FALSE(parent.filter().direction.has_value());
}

TEST(TraceViewTest, IteratorSkipsNonMatchingRuns) {
  const auto trace = make_trace();
  const auto view = capture::TraceView{trace}.host(1);
  auto it = view.begin();
  ASSERT_NE(it, view.end());
  EXPECT_DOUBLE_EQ(it->t_s, 0.50);  // skipped the leading host-0 run
  const auto prev = it++;
  EXPECT_DOUBLE_EQ(prev->t_s, 0.50);
  ASSERT_NE(it, view.end());
  EXPECT_DOUBLE_EQ((*it).t_s, 1.20);
  ++it;
  EXPECT_EQ(it, view.end());
}

TEST(TraceViewTest, FilterMatchingNothingIsEmpty) {
  const auto trace = make_trace();
  const auto view = capture::TraceView{trace}.host(9);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.count(), 0U);
  EXPECT_EQ(view.begin(), view.end());
  EXPECT_EQ(view.down_payload_bytes(), 0U);
  EXPECT_EQ(view.connection_count(), 0U);
}

TEST(TraceViewTest, DefaultViewIsEmptyAndSafe) {
  const capture::TraceView view;
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.count(), 0U);
  EXPECT_EQ(view.label(), "");
  EXPECT_DOUBLE_EQ(view.duration_s(), 0.0);
  EXPECT_EQ(view.underlying(), nullptr);
  EXPECT_TRUE(view.materialize().packets.empty());
}

TEST(TraceViewTest, DownloadCurveAndWindowSeriesMatchLegacy) {
  const auto trace = make_trace();
  const auto video_trace = copied_host(trace, 0);
  const capture::TraceView video{video_trace};
  const auto view = capture::TraceView{trace}.host(0);
  const auto curve = view.download_curve();
  const auto legacy_curve = video.download_curve();
  ASSERT_EQ(curve.size(), legacy_curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(curve[i].t_s, legacy_curve[i].t_s);
    EXPECT_EQ(curve[i].bytes, legacy_curve[i].bytes);
  }
  const auto series = view.receive_window_series();
  const auto legacy_series = video.receive_window_series();
  ASSERT_EQ(series.size(), legacy_series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_DOUBLE_EQ(series[i].t_s, legacy_series[i].t_s);
    EXPECT_EQ(series[i].window_bytes, legacy_series[i].window_bytes);
  }
}

TEST(TraceViewTest, MaterializeCopiesFilteredRecordsAndMetadata) {
  const auto trace = make_trace();
  const auto owned = capture::TraceView{trace}.host(0).materialize();
  EXPECT_EQ(owned.label, trace.label);
  EXPECT_DOUBLE_EQ(owned.encoding_bps, trace.encoding_bps);
  EXPECT_DOUBLE_EQ(owned.duration_s, trace.duration_s);
  const auto legacy = copied_host(trace, 0);
  ASSERT_EQ(owned.packets.size(), legacy.packets.size());
  for (std::size_t i = 0; i < owned.packets.size(); ++i) {
    EXPECT_DOUBLE_EQ(owned.packets[i].t_s, legacy.packets[i].t_s);
    EXPECT_EQ(owned.packets[i].connection_id, legacy.packets[i].connection_id);
  }
}

TEST(TraceViewTest, ImplicitConversionFromTrace) {
  const auto trace = make_trace();
  const auto count_via_view = [](capture::TraceView v) { return v.count(); };
  EXPECT_EQ(count_via_view(trace), trace.packets.size());
}

TEST(TraceViewTest, ViewStaysSmall) {
  // Views are meant to be passed by value; keep them register-friendly.
  static_assert(sizeof(capture::TraceView) <= 64);
  SUCCEED();
}

}  // namespace
}  // namespace vstream
