// Incremental (single-pass, online) counterparts of the batch analyses.
//
// Each accumulator consumes `PacketRecord`s one at a time — from a
// `TraceRecorder` sink, a pcap read loop, or a `TraceView` walk — and
// reproduces its batch function's output exactly: the batch entry points
// (`analyze_on_off`, `build_flow_table`, `estimate_handshake_rtt`,
// `estimate_cycle_period`) are thin wrappers that feed an accumulator, so
// the two paths cannot diverge. Memory scales with the number of ON/OFF
// cycles and TCP connections, never with the number of packets — the
// property that lets a sweep analyze tens of thousands of sessions, or a
// multi-hour capture, without materializing any trace.
//
// The per-packet state machines mirror the paper's §5 methodology: an OFF
// period is an idle gap in down-direction data, the buffering phase ends at
// the first OFF period, block size is the per-ON-period byte count.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/flows.hpp"
#include "analysis/onoff.hpp"
#include "analysis/periodicity.hpp"
#include "capture/trace.hpp"

namespace vstream::analysis {

/// Emitted by `OnOffAccumulator::add` when the packet just processed opened
/// a new ON period. Lets downstream consumers (the ack-clock window
/// accumulator) react to cycle boundaries without re-deriving the gap state
/// machine.
struct OnStartEvent {
  double start_s{0.0};
  bool first_period{false};    ///< no preceding OFF (buffering phase start)
  double preceding_off_s{0.0}; ///< OFF duration before this ON; 0 for the first
  /// Probe bytes at start_s fed before this packet: records at the ON
  /// start time that precede it (only probes can, data would be ON).
  std::uint64_t tied_probe_bytes{0};
};

/// Online ON/OFF cycle analysis (§5). `analyze_on_off` == feed + finish.
class OnOffAccumulator {
 public:
  explicit OnOffAccumulator(const OnOffOptions& options = {});

  /// Process one record. Returns the cycle-boundary event when this packet
  /// started a new ON period.
  std::optional<OnStartEvent> add(const capture::PacketRecord& p);

  /// Close the current ON period and derive the buffering / steady-state
  /// summary. Idempotent (state is copied, not consumed).
  [[nodiscard]] OnOffAnalysis finish() const;

 private:
  OnOffOptions options_;
  OnOffAnalysis acc_;  // closed periods, off durations, running totals
  bool in_period_{false};
  OnPeriod current_;
  double probe_t_s_{0.0};              // latest probe time
  std::uint64_t probe_bytes_at_t_{0};  // probe bytes fed at probe_t_s_
};

/// Online zero-window episode counter (rising edges of `window_bytes == 0`
/// on the up direction) — `count_zero_window_episodes` == feed + episodes.
class ZeroWindowAccumulator {
 public:
  void add(const capture::PacketRecord& p);
  [[nodiscard]] std::size_t episodes() const { return episodes_; }

 private:
  std::size_t episodes_{0};
  bool at_zero_{false};
};

/// Online down-direction retransmission fraction.
class RetransmissionAccumulator {
 public:
  void add(const capture::PacketRecord& p);
  [[nodiscard]] std::uint64_t down_payload_bytes() const { return total_; }
  [[nodiscard]] double fraction() const;

 private:
  std::uint64_t total_{0};
  std::uint64_t retx_{0};
};

/// Online handshake-RTT estimate: client SYNs (up, SYN without ACK) are
/// queued in arrival order; each down SYN-ACK resolves every still-pending
/// SYN of its connection that it strictly follows (a SYN-ACK stamped with
/// its SYN's time resolves nothing, so no estimate is ever zero). The answer is the first SYN in arrival order that
/// found a match — exactly what the batch scan returns, in O(packets x
/// connections) instead of the seed's O(packets^2).
class HandshakeRttTracker {
 public:
  /// Returns true when this record made the estimate final: the
  /// head-of-queue SYN just matched, so no later record can change it.
  /// Once final, further SYNs are ignored.
  bool add(const capture::PacketRecord& p);

  /// Current best estimate; may change while unmatched SYNs precede the
  /// first matched one, and is final once the head-of-queue SYN matches.
  [[nodiscard]] std::optional<double> rtt_s() const;

 private:
  struct PendingSyn {
    std::uint64_t connection_id{0};
    double t_s{0.0};
    std::optional<double> rtt_s;
  };
  std::vector<PendingSyn> syns_;
};

/// Online first-RTT byte windows (§5.1.5 / Fig 9): one window per
/// steady-state ON period preceded by a qualifying OFF, summing all
/// down-direction data bytes in [start, start + rtt) with rtt the final
/// handshake estimate — `first_rtt_bytes` over the same records, exactly.
/// The owner opens windows from `OnOffAccumulator` cycle events, feeds
/// every down data record, and calls `settle` once the estimate is final;
/// windows opened after that are bounded at once. Windows opened before it
/// wait: the (t, bytes) of every down data record from the first window on
/// goes to a replay log, which `settle` (or `samples`, with the last
/// estimate) replays into them. The log is empty whenever the handshake
/// completes before steady state, and is dropped at `settle`.
class FirstRttAccumulator {
 public:
  /// Open a window at an ON-period start, before the window-opening record
  /// is fed, so that record lands in its own window; `tied_bytes` are the
  /// down data bytes at `start_s` fed before it (`OnStartEvent`).
  void open_window(double start_s, std::uint64_t tied_bytes);

  /// Feed one down-direction data packet (payload > 0), the same packet
  /// stream the ON/OFF machine sees.
  void add_down_data(double t_s, std::uint64_t bytes);

  /// The handshake estimate is final: bound every window by `rtt_s`.
  void settle(double rtt_s);

  /// Per-window byte counts in window-open order (the Fig 9 samples);
  /// before `settle`, the windows are bounded by `rtt_s`, the last estimate.
  [[nodiscard]] std::vector<double> samples(double rtt_s) const;

 private:
  struct Window {
    double start_s{0.0};
    double end_s{0.0};        ///< set once bounded
    std::uint64_t bytes{0};
    std::size_t log_from{0};  ///< first log entry fed after the window opened
  };
  void bound(Window& w, double rtt_s) const;

  std::optional<double> rtt_s_;  // set by settle
  std::vector<Window> windows_;
  std::size_t first_open_{0};
  std::vector<std::pair<double, std::uint64_t>> log_;
};

/// Online autocorrelation periodicity estimate. Replicates the batch
/// algorithm bin-for-bin: the rate-series anchor (steady-state start) is
/// discovered on the fly by an embedded default-options ON/OFF machine, and
/// down-direction data seen near a provisional ON end (zero-window probes
/// inside a candidate gap) is buffered until the gap is confirmed or
/// absorbed, so the binned series is identical to the two-pass batch one.
/// The gap buffer holds at most the data packets of one idle gap.
///
/// The series is bounded by the input, not by its time span: a series may
/// hold `max_bins(r)` bins for r down-data records binned into it. A longer
/// one is almost all empty bins (one hostile timestamp makes it so) and is
/// reported non-periodic without being built, so memory and time stay
/// linear in the records however far apart their timestamps lie.
class PeriodicityAccumulator {
 public:
  /// 64 bins per binned record on top of a fixed 32768 that covers short
  /// captures (27 min at the default 50 ms bins). The bound sits more than
  /// 10x above every series the catalog, fault, randomized and synthetic
  /// traces produce.
  [[nodiscard]] static constexpr std::size_t max_bins(std::size_t records) {
    return 64 * records + 32768;
  }

  explicit PeriodicityAccumulator(const PeriodicityOptions& options = {});

  void add(const capture::PacketRecord& p);

  [[nodiscard]] PeriodicityResult finish() const;

 private:
  /// Rate-bin sums, dense up to the bound the records binned so far allow;
  /// a record past it waits in `spill` until `finish` knows the final size.
  struct Series {
    std::vector<double> sums;
    std::vector<std::pair<std::size_t, double>> spill;
    std::size_t records{0};
  };
  void bin_add(Series& series, double steady_start, double t, double amount) const;

  PeriodicityOptions options_;
  OnOffAccumulator onoff_;  // default options: anchor discovery only
  bool anchored_{false};
  double steady_start_{0.0};
  double provisional_end_{0.0};
  Series series_;  // grows as packets land; sized exactly at finish
  std::vector<std::pair<double, double>> gap_buffer_;  // (t, bytes) at/after provisional end
  double t_end_{0.0};
  bool any_packet_{false};
};

/// Online per-connection flow table — `build_flow_table` == feed + finish.
/// Memory is O(connections).
class FlowAccumulator {
 public:
  void add(const capture::PacketRecord& p);

  /// Copy the per-connection records out, ordered by first packet time.
  [[nodiscard]] FlowTable finish() const;

 private:
  std::map<std::uint64_t, FlowRecord> by_id_;
  std::map<std::uint64_t, double> syn_time_;
};

}  // namespace vstream::analysis
