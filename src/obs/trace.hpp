// Typed trace bus: in-sim probe events and pluggable sinks.
//
// Instrumented components emit small typed records (TCP congestion state,
// simulator-loop health, pacing blocks, player stalls, zero-window
// episodes) through the world's `TraceBus`. When no sink is attached the
// probes compile down to a single empty-vector check, so the instrumented
// hot paths stay cheap. Sinks: a bounded ring buffer (`RingBufferSink`,
// for tests and for holding a run's event tail) and the Chrome-trace file
// writer (`ChromeTraceSink`, obs/chrome_trace.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <variant>
#include <vector>

namespace vstream::obs {

/// Sender-side TCP congestion snapshot, emitted on every state transition
/// (ACK-driven growth, loss response, idle restart) and whenever the peer's
/// advertised window crosses zero — the rwnd signal of Figs 2(b)/6(a).
struct TcpCwndSample {
  double t_s{0.0};
  std::uint64_t connection_id{0};
  std::string endpoint;  ///< emitting endpoint's label (client#N / server#N)
  std::uint64_t cwnd{0};
  std::uint64_t ssthresh{0};
  std::uint64_t rwnd{0};     ///< peer's advertised receive window
  std::uint64_t adv_wnd{0};  ///< own advertised window, as last transmitted
  double rto_s{0.0};
  std::uint64_t bytes_in_flight{0};
};

/// Periodic simulator-loop health sample (see `SimLoopMonitor`).
struct SimLoopSample {
  double t_s{0.0};
  std::uint64_t events_processed{0};
  std::uint64_t events_pending{0};
  std::uint64_t max_events_pending{0};  ///< queue-depth high water so far
  double sim_wall_ratio{0.0};           ///< sim seconds per wall second since last sample
};

/// A server pacing discipline pushed one block (or the initial burst).
struct PacingBlockEmitted {
  double t_s{0.0};
  std::uint64_t connection_id{0};
  std::uint64_t bytes{0};
  bool initial_burst{false};
};

/// Player buffer ran dry mid-playback.
struct PlayerStall {
  double t_s{0.0};
  std::uint32_t stall_count{0};  ///< cumulative, including this one
};

/// Viewer abandoned the session (lack of interest, beta in Section 6.2).
struct PlayerInterrupt {
  double t_s{0.0};
  double watched_s{0.0};
};

/// A receiver's advertised window sat at zero from `t_s - duration_s` to
/// `t_s` (episode emitted when the window reopens).
struct ZeroWindowEpisode {
  double t_s{0.0};
  std::uint64_t connection_id{0};
  std::string endpoint;
  double duration_s{0.0};
};

/// An impairment window opened (`begin`) or closed on a link (fault
/// injection, see net/dynamics.hpp).
struct LinkFault {
  double t_s{0.0};
  std::string kind;  ///< "rate_scale" | "delay_spike" | "burst_loss" | "blackout"
  bool begin{true};
  double rate_factor{1.0};  ///< effective serialisation-rate factor after the transition
};

/// A fetch hit its no-progress timeout and is being retried on a fresh
/// connection after an exponential backoff (streaming/fetch resilience).
struct FetchRetry {
  double t_s{0.0};
  std::uint32_t attempt{0};      ///< 1 for the first retry
  double backoff_s{0.0};         ///< wait before the reissue
  std::uint64_t remaining_bytes{0};
  bool gave_up{false};           ///< retry budget exhausted; fetch abandoned
};

/// A closed episode span from the `obs::SpanTracer` layer (span.hpp):
/// fetch lifecycle, player phases, TCP recovery, fault windows. Emitted
/// once, when the span closes (or is truncated at teardown).
struct SpanRecord {
  double t_begin_s{0.0};
  double t_end_s{0.0};
  double t_mark_s{-1.0};  ///< optional mid-span mark (fetch first byte); <0 = none
  std::uint64_t span_id{0};  ///< per-tracer monotonic, deterministic
  std::uint64_t id{0};       ///< domain id (connection id, attempt, ...)
  std::uint32_t depth{0};    ///< open spans when this one opened
  std::string category;      ///< "fetch" | "player" | "tcp" | "link" | "sim"
  std::string name;
  std::string detail;  ///< outcome: "complete", "stalled", "capture_end", ...
};

using TraceEvent = std::variant<TcpCwndSample, SimLoopSample, PacingBlockEmitted, PlayerStall,
                                PlayerInterrupt, ZeroWindowEpisode, LinkFault, FetchRetry,
                                SpanRecord>;

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// Fan-out point owned by the world's `ObsContext`. Sinks are non-owning.
class TraceBus {
 public:
  void attach(TraceSink* sink);
  void detach(TraceSink* sink);

  /// True when at least one sink listens; probes gate their work on this.
  [[nodiscard]] bool active() const { return !sinks_.empty(); }
  [[nodiscard]] std::uint64_t events_emitted() const { return events_emitted_; }

  void emit(const TraceEvent& event) {
    if (sinks_.empty()) return;
    ++events_emitted_;
    for (TraceSink* sink : sinks_) sink->on_event(event);
  }

 private:
  std::vector<TraceSink*> sinks_;
  std::uint64_t events_emitted_{0};
};

/// Keeps the most recent `capacity` events in memory (tests, debugging).
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity);
  void on_event(const TraceEvent& event) override;

  [[nodiscard]] const std::deque<TraceEvent>& events() const { return events_; }
  [[nodiscard]] std::uint64_t total_seen() const { return total_; }

  /// All buffered events of one type, in arrival order.
  template <typename Ev>
  [[nodiscard]] std::vector<Ev> collect() const {
    std::vector<Ev> out;
    for (const auto& e : events_) {
      if (const auto* ev = std::get_if<Ev>(&e)) out.push_back(*ev);
    }
    return out;
  }

 private:
  std::size_t capacity_;
  std::deque<TraceEvent> events_;
  std::uint64_t total_{0};
};

}  // namespace vstream::obs
