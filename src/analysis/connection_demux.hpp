// Per-connection capture demux: the ingestion-side fan-out.
//
// A capture is a time-interleaved union of independent TCP connections, and
// every per-connection question the classifier asks (strategy, pacing,
// ack-clock, zero-window behaviour) depends only on that connection's own
// records, in file order. That makes the demux embarrassingly parallel in
// exactly the way the sweep engine already exploits for session worlds:
//
//   1. `classify_lane` — each lane walks the whole mmapped file with the
//      reader's cursor (read-only, zero-copy, the same per-record
//      validation everywhere), probes each record's connection id, skips
//      the records of other lanes (`connection_id % lanes != lane`), and
//      runs its own through per-connection sequence unwrap and a
//      `StreamingReportBuilder`. It also totals its connections' payload
//      per direction. Lanes share nothing but the immutable mapping.
//   2. `merge_lanes` — rows are spliced in ascending connection order and
//      the lanes' payload totals are summed, so the merged
//      `CaptureClassification` is a pure function of the file:
//      byte-identical whether one lane ran or sixteen.
//
// Which peer sends the bulk of the payload is a whole-file question, so the
// direction heuristic is settled by the merged totals: lanes classify the
// capture as written, and run again with directions flipped only when the
// merge says the capture is mirrored (foreign captures taken from the
// server side; never our own writer's).
//
// The parallel driver over these steps lives in
// analysis/parallel_classify.hpp (header-only, templated on the pool, so
// this library never links the runner).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "capture/pcap_reader.hpp"

namespace vstream::analysis {

/// One classified connection — a row of the paper's Table 1 plus the
/// transport-level columns (§4) that fall out of the same single pass.
struct ConnectionLabel {
  std::uint64_t connection_id{0};
  std::uint8_t host{0};
  std::size_t packets{0};
  double first_packet_s{0.0};
  double last_packet_s{0.0};
  double down_payload_mb{0.0};

  // Strategy (Table 1): no ON-OFF / short cycles / long cycles.
  Strategy strategy{Strategy::kNoOnOff};
  bool has_steady_state{false};
  double median_block_kb{0.0};
  double median_off_s{0.0};
  std::optional<double> cycle_period_s;

  // Pacing parameters: the server's steady-state transfer rate and how the
  // pacing is achieved (ack-clocked: the first-RTT burst is small against
  // the block, so the receiver's ack clock spreads the block out; absent
  // when the connection never produced the inputs).
  double steady_rate_mbps{0.0};
  std::optional<double> rtt_ms;
  std::optional<double> median_first_rtt_kb;
  std::optional<bool> ack_clocked;

  double retransmission_pct{0.0};
  std::size_t zero_window_episodes{0};

  friend bool operator==(const ConnectionLabel&, const ConnectionLabel&) = default;
};

/// The merged result: every connection in the capture, labelled, in
/// ascending connection-id order, plus capture-wide totals.
struct CaptureClassification {
  std::vector<ConnectionLabel> connections;
  std::uint64_t records{0};   ///< pcap records in the file
  std::size_t packets{0};     ///< decoded TCP packets across connections
  double duration_s{0.0};     ///< first decoded packet to last, capture-wide
  double down_payload_mb{0.0};
  bool direction_flipped{false};

  [[nodiscard]] std::string to_json() const;
  /// Header line + one row per connection; stable column set, `%.6g`
  /// numbers, empty cells for absent optionals.
  [[nodiscard]] std::string to_csv() const;
  /// Human-readable table for terminals.
  [[nodiscard]] std::string render() const;

  friend bool operator==(const CaptureClassification&, const CaptureClassification&) = default;
};

/// One lane's walk of the capture: the rows of its own connections, in
/// ascending connection-id order, and the totals the merge needs.
struct LaneResult {
  std::vector<ConnectionLabel> rows;
  std::uint64_t records{0};  ///< pcap records in the file: every lane walks them all
  /// Payload of this lane's connections per direction as written, whether
  /// or not the lane flipped directions.
  std::uint64_t down_payload_bytes{0};
  std::uint64_t up_payload_bytes{0};
};

/// Classify the connections of one lane (`connection_id % lanes == lane`),
/// directions mirrored when `flip` is set. Distinct lanes touch disjoint
/// connections and only read the shared mapping, so calls for distinct
/// lanes are safe to run concurrently. Throws what the reader throws on a
/// corrupt file; every lane walks every record, so every lane throws it.
[[nodiscard]] LaneResult classify_lane(const capture::MmapPcapReader& reader, std::size_t lanes,
                                       std::size_t lane, bool flip,
                                       const ReportOptions& options);

/// Splice per-lane rows into one classification, one entry per lane. Rows
/// merge in ascending connection order, so the result is independent of
/// lane count. `direction_flipped` is set when the summed totals say the
/// capture is mirrored (more payload up than down); the caller then runs
/// the lanes again with `flip` and merges those.
[[nodiscard]] CaptureClassification merge_lanes(std::vector<LaneResult> lanes);

/// Serial reference: the same lanes and merge with one lane. The parallel
/// driver (parallel_classify.hpp) is tested byte-identical to this.
[[nodiscard]] CaptureClassification classify_capture_serial(const capture::MmapPcapReader& reader,
                                                            const ReportOptions& options = {});

}  // namespace vstream::analysis
