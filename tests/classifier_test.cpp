// Tests for the parallel per-connection demux and classifier: the parallel
// driver must be byte-identical to the serial reference at every lane
// count, the labels must agree with an independently-built per-connection
// StreamingReportBuilder pass, and the direction-flip heuristic and empty
// captures must behave across job counts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "analysis/connection_demux.hpp"
#include "analysis/parallel_classify.hpp"
#include "analysis/streaming_report.hpp"
#include "capture/pcap.hpp"
#include "capture/pcap_reader.hpp"
#include "capture/pcap_wire.hpp"
#include "capture/synthetic.hpp"
#include "net/segment.hpp"
#include "runner/parallel_sweep.hpp"

namespace {

using namespace vstream;
using namespace vstream::analysis;
using vstream::capture::MmapPcapReader;

class ClassifierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    capture::SyntheticCaptureOptions gen;
    gen.connections = 6;
    // 16 MB gives the ack-clocked long-cycle connection (c=2) enough full
    // cycles to cross the steady-state detector; at 8 MB it labels "No".
    gen.target_file_bytes = 16ULL << 20U;
    summary_ = capture::write_synthetic_capture(path_, gen);
  }

  static void TearDownTestSuite() { (void)std::remove(path_.c_str()); }

  [[nodiscard]] static CaptureClassification serial() {
    const MmapPcapReader reader{path_};
    return classify_capture_serial(reader, {});
  }

  // gtest_discover_tests runs every test case as its own process, and ctest
  // may run several concurrently — the fixture path must be per-process.
  static inline std::string path_ =
      "/tmp/vstream_classifier_test_" + std::to_string(::getpid()) + ".pcap";
  static inline capture::SyntheticCaptureSummary summary_;
};

TEST_F(ClassifierTest, SerialClassificationMatchesGroundTruth) {
  const CaptureClassification got = serial();
  ASSERT_EQ(got.connections.size(), 6U);
  EXPECT_EQ(got.records, summary_.records);
  EXPECT_FALSE(got.direction_flipped);
  EXPECT_GT(got.duration_s, 0.0);
  EXPECT_GT(got.down_payload_mb, 0.0);

  for (std::size_t i = 0; i < got.connections.size(); ++i) {
    const ConnectionLabel& row = got.connections[i];
    EXPECT_EQ(row.connection_id, i + 1);
    EXPECT_GT(row.packets, 0U);
    EXPECT_GE(row.last_packet_s, row.first_packet_s);
  }

  // Generator contract (synthetic.hpp): c%3==1 short cycles with a
  // zero-window episode per block, c%3==2 long cycles, c%3==0 bulk,
  // c%6==5 bursts whole blocks inside one RTT (no ack clock).
  const auto& c1 = got.connections[0];
  EXPECT_EQ(c1.strategy, Strategy::kShortOnOff);
  EXPECT_TRUE(c1.has_steady_state);
  EXPECT_GT(c1.zero_window_episodes, 0U);
  ASSERT_TRUE(c1.ack_clocked.has_value());
  EXPECT_TRUE(*c1.ack_clocked);

  const auto& c2 = got.connections[1];
  EXPECT_EQ(c2.strategy, Strategy::kLongOnOff);

  const auto& c3 = got.connections[2];
  EXPECT_EQ(c3.strategy, Strategy::kNoOnOff);
  EXPECT_FALSE(c3.has_steady_state);

  const auto& c5 = got.connections[4];
  ASSERT_TRUE(c5.ack_clocked.has_value());
  EXPECT_FALSE(*c5.ack_clocked);
}

TEST_F(ClassifierTest, ParallelIsByteIdenticalToSerialAtEveryJobCount) {
  const CaptureClassification reference = serial();
  const MmapPcapReader reader{path_};
  for (const std::size_t jobs : {1U, 2U, 4U}) {
    SCOPED_TRACE(jobs);
    const runner::ParallelSweep pool{jobs};
    const CaptureClassification got = classify_capture(reader, pool, {});
    EXPECT_EQ(got, reference);
    EXPECT_EQ(got.to_json(), reference.to_json());
    EXPECT_EQ(got.to_csv(), reference.to_csv());
  }
}

TEST_F(ClassifierTest, LabelsMatchIndependentPerConnectionBuilders) {
  // Independent reference: group records per connection through the plain
  // serial reader and run one StreamingReportBuilder per connection —
  // no demux, no lanes, no shared code path beyond the builder itself.
  std::map<std::uint64_t, StreamingReportBuilder> builders;
  std::map<std::uint64_t, std::size_t> packets;
  capture::for_each_pcap_record(path_, [&](const capture::PacketRecord& r) {
    builders.try_emplace(r.connection_id, ReportOptions{}).first->second.add(r);
    ++packets[r.connection_id];
  });

  const CaptureClassification got = serial();
  ASSERT_EQ(got.connections.size(), builders.size());
  for (const ConnectionLabel& row : got.connections) {
    SCOPED_TRACE(row.connection_id);
    const auto it = builders.find(row.connection_id);
    ASSERT_NE(it, builders.end());
    const SessionReport report = it->second.finish();
    EXPECT_EQ(row.packets, packets[row.connection_id]);
    EXPECT_EQ(row.strategy, report.strategy);
    EXPECT_EQ(row.has_steady_state, report.has_steady_state);
    EXPECT_DOUBLE_EQ(row.median_block_kb, report.median_block_kb);
    EXPECT_DOUBLE_EQ(row.median_off_s, report.median_off_s);
    EXPECT_DOUBLE_EQ(row.steady_rate_mbps, report.steady_rate_mbps);
    EXPECT_DOUBLE_EQ(row.down_payload_mb, report.total_mb);
    EXPECT_DOUBLE_EQ(row.retransmission_pct, report.retransmission_pct);
    EXPECT_EQ(row.zero_window_episodes, report.zero_window_episodes);
    EXPECT_EQ(row.rtt_ms.has_value(), report.rtt_ms.has_value());
  }
}

TEST_F(ClassifierTest, MirroredCaptureIsFlippedBackToTheSameRows) {
  // Re-write the capture with every record's direction mirrored, as if the
  // trace had been taken from the server side of the tap.
  capture::PacketTrace trace = capture::read_pcap(path_);
  for (capture::PacketRecord& r : trace.packets) {
    r.direction = net::opposite(r.direction);
  }
  const std::string mirrored = "/tmp/vstream_classifier_test_mirrored.pcap";
  capture::write_pcap(trace, mirrored);

  const MmapPcapReader reader{mirrored};
  const CaptureClassification got = classify_capture_serial(reader, {});

  EXPECT_TRUE(got.direction_flipped);
  const CaptureClassification reference = serial();
  ASSERT_EQ(got.connections.size(), reference.connections.size());
  EXPECT_DOUBLE_EQ(got.down_payload_mb, reference.down_payload_mb);
  for (std::size_t i = 0; i < reference.connections.size(); ++i) {
    SCOPED_TRACE(i);
    const ConnectionLabel& a = got.connections[i];
    const ConnectionLabel& b = reference.connections[i];
    EXPECT_EQ(a.connection_id, b.connection_id);
    EXPECT_EQ(a.strategy, b.strategy);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_DOUBLE_EQ(a.down_payload_mb, b.down_payload_mb);
    EXPECT_DOUBLE_EQ(a.median_block_kb, b.median_block_kb);
    EXPECT_EQ(a.zero_window_episodes, b.zero_window_episodes);
  }

  // The parallel flip rerun lands on the same rows as the serial one.
  for (const std::size_t jobs : {1U, 2U, 4U}) {
    SCOPED_TRACE(jobs);
    const runner::ParallelSweep pool{jobs};
    EXPECT_EQ(classify_capture(reader, pool, {}), got);
  }
  (void)std::remove(mirrored.c_str());
}

TEST_F(ClassifierTest, EmptyCaptureClassifiesToNothingAtEveryJobCount) {
  const std::string empty = "/tmp/vstream_classifier_test_empty.pcap";
  {
    capture::PcapWriter writer{empty};
    writer.close();
  }
  const MmapPcapReader reader{empty};
  const CaptureClassification reference = classify_capture_serial(reader, {});
  EXPECT_TRUE(reference.connections.empty());
  EXPECT_EQ(reference.records, 0U);
  EXPECT_EQ(reference.packets, 0U);
  EXPECT_DOUBLE_EQ(reference.duration_s, 0.0);

  for (const std::size_t jobs : {1U, 4U}) {
    SCOPED_TRACE(jobs);
    const runner::ParallelSweep pool{jobs};
    EXPECT_EQ(classify_capture(reader, pool, {}), reference);
  }
  // CSV of an empty capture is the header line alone.
  const std::string csv = reference.to_csv();
  EXPECT_EQ(csv.find('\n'), csv.size() - 1);
  (void)std::remove(empty.c_str());
}

TEST_F(ClassifierTest, HostileTimestampOnlyDropsItsConnectionsCycle) {
  // Push one connection's last down-data record ~17 years into the future.
  // Its rate series would need ~10^10 bins; the periodicity bound leaves
  // that connection without a cycle estimate instead of exhausting memory.
  const CaptureClassification reference = serial();
  const auto periodic = std::find_if(
      reference.connections.begin(), reference.connections.end(),
      [](const ConnectionLabel& row) { return row.cycle_period_s.has_value(); });
  ASSERT_NE(periodic, reference.connections.end());
  const std::uint64_t target = periodic->connection_id;

  std::uint64_t last_down_data = 0;
  {
    const MmapPcapReader reader{path_};
    ASSERT_FALSE(reader.header().swapped);
    capture::FrameProbe probe;
    reader.for_each([&](const capture::PcapRecordView& view) {
      if (capture::probe_frame(view, probe) && probe.connection_id == target && probe.down &&
          probe.payload_bytes > 0) {
        last_down_data = view.offset;
      }
    });
  }
  ASSERT_GT(last_down_data, 0U);
  std::ifstream in{path_, std::ios::binary};
  std::vector<char> bytes{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  capture::wire::put_u32le(reinterpret_cast<std::uint8_t*>(bytes.data() + last_down_data),
                           0x20000000U);
  const std::string hostile =
      "/tmp/vstream_classifier_test_hostile_" + std::to_string(::getpid()) + ".pcap";
  std::ofstream{hostile, std::ios::binary}.write(bytes.data(),
                                                 static_cast<std::streamsize>(bytes.size()));

  const MmapPcapReader reader{hostile};
  const CaptureClassification got = classify_capture_serial(reader, {});
  (void)std::remove(hostile.c_str());
  ASSERT_EQ(got.connections.size(), reference.connections.size());
  for (std::size_t i = 0; i < got.connections.size(); ++i) {
    SCOPED_TRACE(got.connections[i].connection_id);
    if (got.connections[i].connection_id == target) {
      EXPECT_FALSE(got.connections[i].cycle_period_s.has_value());
    } else {
      EXPECT_EQ(got.connections[i], reference.connections[i]);
    }
  }
}

TEST_F(ClassifierTest, TiedHandshakeOnlyDropsItsConnectionsRttFields) {
  // Stamp one connection's SYN-ACK with its SYN's own time. A zero RTT is no
  // estimate: that connection loses its RTT-derived fields, and every other
  // row and the capture-wide totals stay as they were, at every job count.
  const CaptureClassification reference = serial();
  const auto paced = std::find_if(
      reference.connections.begin(), reference.connections.end(),
      [](const ConnectionLabel& row) { return row.median_first_rtt_kb.has_value(); });
  ASSERT_NE(paced, reference.connections.end());
  const std::uint64_t target = paced->connection_id;

  std::uint64_t syn = 0;
  std::uint64_t syn_ack = 0;
  {
    const MmapPcapReader reader{path_};
    reader.for_each([&](const capture::PcapRecordView& view) {
      capture::WirePacket w;
      if (!capture::parse_frame(view, w) || w.record.connection_id != target ||
          !net::has_flag(w.record.flags, net::TcpFlag::kSyn)) {
        return;
      }
      const bool ack = net::has_flag(w.record.flags, net::TcpFlag::kAck);
      if (w.record.direction == net::Direction::kUp && !ack && syn == 0) syn = view.offset;
      if (w.record.direction == net::Direction::kDown && ack && syn_ack == 0) {
        syn_ack = view.offset;
      }
    });
  }
  ASSERT_GT(syn, 0U);
  ASSERT_GT(syn_ack, syn);
  std::ifstream in{path_, std::ios::binary};
  std::vector<char> bytes{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  // The first 8 bytes of a record header are its seconds and microseconds.
  std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(syn), 8,
              bytes.begin() + static_cast<std::ptrdiff_t>(syn_ack));
  const std::string tied =
      "/tmp/vstream_classifier_test_tied_" + std::to_string(::getpid()) + ".pcap";
  std::ofstream{tied, std::ios::binary}.write(bytes.data(),
                                              static_cast<std::streamsize>(bytes.size()));

  CaptureClassification expected = reference;
  for (ConnectionLabel& row : expected.connections) {
    if (row.connection_id != target) continue;
    row.rtt_ms.reset();
    row.median_first_rtt_kb.reset();
    row.ack_clocked.reset();
  }
  const MmapPcapReader reader{tied};
  EXPECT_EQ(classify_capture_serial(reader, {}), expected);
  for (const std::size_t jobs : {1U, 2U, 4U}) {
    SCOPED_TRACE(jobs);
    const runner::ParallelSweep pool{jobs};
    const CaptureClassification got = classify_capture(reader, pool, {});
    EXPECT_EQ(got, expected);
    EXPECT_EQ(got.to_json(), expected.to_json());
  }
  (void)std::remove(tied.c_str());
}

TEST_F(ClassifierTest, CsvHasStableShape) {
  const CaptureClassification got = serial();
  const std::string csv = got.to_csv();
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < csv.size()) {
    const std::size_t nl = csv.find('\n', start);
    lines.push_back(csv.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), got.connections.size() + 1);
  const auto commas = [](const std::string& s) {
    return static_cast<std::size_t>(std::count(s.begin(), s.end(), ','));
  };
  EXPECT_EQ(lines[0].rfind("connection,host,packets", 0), 0U);
  for (const std::string& line : lines) {
    EXPECT_EQ(commas(line), commas(lines[0]));
  }
}

TEST_F(ClassifierTest, LanesCoverEveryConnectionExactlyOnce) {
  const MmapPcapReader reader{path_};
  const LaneResult whole = classify_lane(reader, 1, 0, false, {});
  EXPECT_EQ(whole.records, summary_.records);
  EXPECT_EQ(whole.down_payload_bytes, summary_.down_payload_bytes);
  EXPECT_LT(whole.up_payload_bytes, whole.down_payload_bytes);

  for (std::size_t lanes = 1; lanes <= 5; ++lanes) {
    SCOPED_TRACE(lanes);
    std::map<std::uint64_t, std::size_t> lane_of;
    std::uint64_t down = 0;
    std::uint64_t up = 0;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      SCOPED_TRACE(lane);
      const LaneResult got = classify_lane(reader, lanes, lane, false, {});
      // Every lane walks every record, and owns the connections of its
      // residue class only.
      EXPECT_EQ(got.records, summary_.records);
      for (const ConnectionLabel& row : got.rows) {
        EXPECT_EQ(row.connection_id % lanes, lane);
        EXPECT_TRUE(lane_of.emplace(row.connection_id, lane).second);
      }
      down += got.down_payload_bytes;
      up += got.up_payload_bytes;
    }
    EXPECT_EQ(lane_of.size(), whole.rows.size());
    EXPECT_EQ(down, whole.down_payload_bytes);
    EXPECT_EQ(up, whole.up_payload_bytes);
  }
}

TEST_F(ClassifierTest, CorruptCaptureThrowsTheSerialDiagnosticAtEveryJobCount) {
  // Cut the capture inside a record header, then make the first record
  // promise more bytes than its snaplen: the reader's two rejections.
  std::ifstream in{path_, std::ios::binary};
  const std::vector<char> bytes{std::istreambuf_iterator<char>{in},
                                std::istreambuf_iterator<char>{}};
  const std::string corrupt =
      "/tmp/vstream_classifier_test_corrupt_" + std::to_string(::getpid()) + ".pcap";
  namespace wire = capture::wire;
  const std::size_t record_bytes = wire::kRecordHeaderBytes + wire::kHeadersBytes;
  const std::size_t mid_header = wire::kGlobalHeaderBytes +
                                 (bytes.size() / 2 / record_bytes) * record_bytes + 6;
  std::vector<char> truncated{bytes.begin(),
                              bytes.begin() + static_cast<std::ptrdiff_t>(mid_header)};
  std::vector<char> absurd = bytes;
  wire::put_u32le(reinterpret_cast<std::uint8_t*>(absurd.data()) + wire::kGlobalHeaderBytes + 8,
                  70000U);  // incl_len past the 65535 snaplen

  for (const std::vector<char>* file : {&truncated, &absurd}) {
    std::ofstream{corrupt, std::ios::binary | std::ios::trunc}.write(
        file->data(), static_cast<std::streamsize>(file->size()));
    const MmapPcapReader reader{corrupt};
    std::string serial_error;
    try {
      (void)classify_capture_serial(reader, {});
    } catch (const std::runtime_error& e) {
      serial_error = e.what();
    }
    SCOPED_TRACE(serial_error);
    EXPECT_EQ(serial_error.rfind("pcap: " + corrupt + " @", 0), 0U);
    for (const std::size_t jobs : {1U, 2U, 4U}) {
      SCOPED_TRACE(jobs);
      const runner::ParallelSweep pool{jobs};
      std::string error;
      try {
        (void)classify_capture(reader, pool, {});
      } catch (const std::runtime_error& e) {
        error = e.what();
      }
      EXPECT_EQ(error, serial_error);
    }
  }
  (void)std::remove(corrupt.c_str());
}

}  // namespace
