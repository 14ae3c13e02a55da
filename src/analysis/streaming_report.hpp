// Single-pass session report: the one implementation behind `SessionReport`.
//
// A `StreamingReportBuilder` consumes `PacketRecord`s one at a time — from
// a live `TraceRecorder` sink, a pcap read loop, or `build_report`'s walk
// over a `TraceView` — and assembles the report without materializing the
// trace. Memory scales with ON/OFF cycles and TCP connections, not packets
// (see DESIGN.md §9), which is what lets a 10k-session sweep or a
// multi-hour capture run in constant space per session.
//
// One path, exact on every trace: on any time-ordered record stream,
// `finish()` equals the composition of the per-analysis batch functions
// (`analyze_on_off`, `classify_strategy`, `estimate_handshake_rtt`,
// `first_rtt_bytes`, `estimate_cycle_period`, ...). First-RTT windows that
// open before the handshake RTT estimate is final are held and replayed
// once it is (see `FirstRttAccumulator`); the replay log is empty whenever
// the handshake completes before steady state. tests/streaming_report_test.cpp
// checks every field against that composition on the scenario catalog and
// on randomized and late-handshake traces.
#pragma once

#include <set>
#include <string>

#include "analysis/accumulators.hpp"
#include "analysis/report.hpp"

namespace vstream::analysis {

class StreamingReportBuilder {
 public:
  explicit StreamingReportBuilder(const ReportOptions& options = {});

  /// Metadata `build_report` reads off the view; set any time before
  /// `finish()`.
  void set_label(std::string label) { label_ = std::move(label); }
  void set_encoding_bps(double bps) { encoding_bps_ = bps; }
  void set_duration_s(double s) { duration_s_ = s; }
  /// Session-side recovery accounting, overriding ReportOptions::resilience
  /// (packets cannot supply it).
  void set_resilience(const ResilienceStats& r) { resilience_ = r; }

  /// Process one record, in capture order.
  void add(const capture::PacketRecord& p);

  /// Assemble the report. Idempotent; `add` may not be called afterwards.
  [[nodiscard]] SessionReport finish() const;

 private:
  ReportOptions options_;
  std::string label_;
  double encoding_bps_{0.0};
  double duration_s_{0.0};
  ResilienceStats resilience_;

  std::size_t packets_{0};
  std::set<std::uint64_t> connections_;
  std::uint64_t last_connection_{0};  // id of the previous record
  RetransmissionAccumulator retransmissions_;
  ZeroWindowAccumulator zero_window_;
  OnOffAccumulator onoff_;
  HandshakeRttTracker handshake_;
  FirstRttAccumulator first_rtt_;
  PeriodicityAccumulator periodicity_;
};

}  // namespace vstream::analysis
