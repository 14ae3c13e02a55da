// One side of a simulated TCP connection.
//
// Implements the sender and receiver state machines: three-way handshake,
// slow start / congestion avoidance, NewReno fast retransmit and recovery,
// RFC 6298 retransmission timeouts with Karn's algorithm, delayed ACKs,
// receive-window flow control with zero-window persistence, out-of-order
// reassembly, and the optional RFC 5681 idle congestion-window restart that
// the paper's Fig 9 discussion hinges on.
//
// Sequence space: the SYN occupies seq 0, application byte k occupies seq
// k+1, and the FIN occupies seq 1+stream_length.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/segment.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"
#include "tcp/options.hpp"
#include "tcp/tag_channel.hpp"

namespace vstream::obs {
class Counter;
}

namespace vstream::tcp {

enum class TcpState : std::uint8_t {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinSent,
  kFinished,
};

[[nodiscard]] std::string to_string(TcpState s);

class Endpoint {
 public:
  struct ReadResult {
    std::uint64_t bytes{0};
    std::vector<std::any> tags;
    bool eof{false};
  };

  Endpoint(sim::Simulator& sim, std::uint64_t connection_id, TcpOptions options,
           std::string label);

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Wire the transmit side to a link and the tag channels (ours to write,
  /// the peer's to read). Must be called before connect()/listen().
  void attach(net::Link& tx_link, std::shared_ptr<TagChannel> tx_tags,
              std::shared_ptr<TagChannel> rx_tags);

  /// Active open (client side): send SYN.
  void connect();
  /// Passive open (server side): await SYN.
  void listen();

  /// Deliver a segment arriving from the network (called by the demux).
  void on_segment(const net::TcpSegment& segment);

  // ---- application send side ----

  /// Queue `bytes` of application data; `tag` (if any) is attached at the
  /// end of this write and surfaces at the peer once it has read past it.
  void send(std::uint64_t bytes, std::any tag = {});

  /// Half-close: a FIN follows the last queued byte.
  void close();

  /// Bytes accepted from the application but not yet acked by the peer.
  [[nodiscard]] std::uint64_t unacked_bytes() const;
  /// Bytes accepted from the application but not yet transmitted once.
  [[nodiscard]] std::uint64_t untransmitted_bytes() const;

  // ---- application receive side ----

  /// Read up to `max_bytes` of in-order data, collecting any tags.
  ReadResult read(std::uint64_t max_bytes);
  /// In-order bytes ready for reading.
  [[nodiscard]] std::uint64_t available() const { return unread_bytes_; }
  /// Total application bytes read so far.
  [[nodiscard]] std::uint64_t total_read() const { return total_read_; }
  /// True once the peer's FIN has been received and all data read.
  [[nodiscard]] bool at_eof() const;

  // ---- callbacks ----
  void set_on_established(std::function<void()> cb) { on_established_ = std::move(cb); }
  void set_on_readable(std::function<void()> cb) { on_readable_ = std::move(cb); }
  /// Fired when the peer's FIN is received (stream fully delivered).
  void set_on_peer_fin(std::function<void()> cb) { on_peer_fin_ = std::move(cb); }

  // ---- introspection ----
  [[nodiscard]] TcpState state() const { return state_; }
  [[nodiscard]] const TcpStats& stats() const { return stats_; }
  [[nodiscard]] const TcpOptions& options() const { return options_; }
  [[nodiscard]] std::uint64_t cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] std::uint64_t ssthresh_bytes() const { return ssthresh_; }
  [[nodiscard]] std::uint64_t bytes_in_flight() const { return snd_nxt_ - snd_una_; }
  [[nodiscard]] std::uint64_t advertised_window() const;
  [[nodiscard]] std::uint64_t peer_window() const { return peer_wnd_; }
  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] std::uint64_t connection_id() const { return connection_id_; }
  /// No retransmission, persist or delayed-ACK timer armed: nothing on
  /// the sim clock will call back into this endpoint.
  [[nodiscard]] bool idle() const {
    return !rto_timer_.pending() && !persist_timer_.pending() && !delack_timer_.pending();
  }

 private:
  // -- sending machinery --
  void transmit(net::TcpSegment segment);
  void try_send();
  void send_pure_ack();
  void retransmit_front();
  /// SACK-aware: retransmit the first un-SACKed hole above the recovery
  /// high-water mark. Returns false when there is nothing left to resend.
  bool retransmit_next_hole();
  void merge_sacked(std::uint64_t start, std::uint64_t end);
  void prune_sacked();
  void arm_rto();
  void cancel_rto();
  void on_rto();
  void arm_persist();
  void on_persist();
  void maybe_idle_restart();
  [[nodiscard]] std::uint64_t send_limit() const;
  [[nodiscard]] std::uint64_t seq_limit() const;  // one past last sendable seq

  // -- receiving machinery --
  void on_segment_impl(const net::TcpSegment& segment);
  void handle_ack(const net::TcpSegment& segment, bool window_update);
  void handle_data(const net::TcpSegment& segment);
  void schedule_ack(bool immediate);
  void deliver_in_order();
  void insert_out_of_order(std::uint64_t seq, std::uint64_t len);
  void recount_out_of_order();
  void note_peer_window(const net::TcpSegment& segment);

  // -- congestion control --
  void on_new_ack(std::uint64_t acked_bytes, std::uint64_t ack);
  void enter_fast_recovery();
  void sample_rtt(std::uint64_t ack);

  // -- observability --
  /// Check the sequence-space / congestion-control invariants and, when a
  /// determinism digest is attached to the simulator, fold a state snapshot
  /// into it. Called after every segment reception.
  void audit_state();
  /// Emit a `TcpCwndSample` on the world's trace bus (no-op when no sink).
  void probe_cwnd();
  /// Track zero-window advertisement episodes from the window value a
  /// transmitted segment carries.
  void note_advertised_window(std::uint64_t window_bytes);

  sim::Simulator& sim_;
  std::uint64_t connection_id_;
  TcpOptions options_;
  std::string label_;
  net::Link* tx_link_{nullptr};
  std::shared_ptr<TagChannel> tx_tags_;
  std::shared_ptr<TagChannel> rx_tags_;

  TcpState state_{TcpState::kClosed};

  // Send sequence state (seq space: SYN=0, data from 1).
  std::uint64_t snd_una_{0};
  std::uint64_t snd_nxt_{0};
  std::uint64_t snd_max_{0};  ///< highest sequence ever transmitted
  std::uint64_t app_bytes_queued_{0};  ///< total app bytes accepted
  bool fin_queued_{false};
  bool fin_sent_{false};

  // Congestion control.
  std::uint64_t cwnd_{0};
  std::uint64_t ssthresh_{0};
  std::uint32_t dup_acks_{0};
  bool in_fast_recovery_{false};
  std::uint64_t recover_{0};

  // Selective acknowledgements (sender view of receiver holes).
  std::map<std::uint64_t, std::uint64_t> sacked_;  ///< start -> end (exclusive)
  std::uint64_t rexmit_high_{0};  ///< recovery retransmission high-water mark
  /// After an RTO, snd_nxt rolls back to snd_una and the range up to this
  /// mark is re-sent (SACKed runs skipped) under slow start.
  std::uint64_t retransmit_until_{0};

  // RTT estimation / RTO.
  bool have_rtt_sample_{false};
  double srtt_s_{0.0};
  double rttvar_s_{0.0};
  sim::Duration rto_;
  sim::EventHandle rto_timer_;
  std::optional<std::uint64_t> timed_seq_;  ///< seq of the timed segment
  sim::SimTime timed_at_{};
  bool timed_retransmitted_{false};

  // Persist (zero-window probing).
  sim::EventHandle persist_timer_;
  sim::Duration persist_backoff_{};

  // Idle restart bookkeeping.
  sim::SimTime last_transmit_at_{};

  // Receive state.
  std::uint64_t rcv_nxt_{0};
  std::map<std::uint64_t, std::uint64_t> out_of_order_;  ///< seq -> len
  std::uint64_t ooo_bytes_{0};
  std::uint64_t unread_bytes_{0};
  std::uint64_t total_read_{0};
  std::optional<std::uint64_t> peer_fin_seq_;
  bool peer_fin_delivered_{false};
  bool peer_fin_notified_{false};
  std::uint64_t peer_wnd_{0};
  bool peer_wnd_seen_{false};

  // Delayed-ACK state.
  sim::EventHandle delack_timer_;
  std::uint32_t segments_since_ack_{0};
  std::uint64_t last_advertised_wnd_{0};

  TcpStats stats_;

  // Zero-window episode tracking (receive side, wire-visible transitions).
  bool advertising_zero_window_{false};
  sim::SimTime zero_window_since_{};

  /// Loss-recovery episode span: opens on entering fast recovery or on an
  /// RTO, closes at the first forward ACK. Named for how the episode began
  /// ("fast_recovery" / "rto_recovery"); an escalation from fast recovery
  /// to timeout keeps the original span open until recovery completes.
  obs::Span recovery_span_;

  // Cached registry instruments; null when the world runs unobserved.
  obs::Counter* ctr_segments_sent_{nullptr};
  obs::Counter* ctr_segments_retransmitted_{nullptr};
  obs::Counter* ctr_bytes_retransmitted_{nullptr};
  obs::Counter* ctr_timeouts_{nullptr};
  obs::Counter* ctr_fast_retransmits_{nullptr};
  obs::Counter* ctr_zero_window_episodes_{nullptr};

  std::function<void()> on_established_;
  std::function<void()> on_readable_;
  std::function<void()> on_peer_fin_;
};

}  // namespace vstream::tcp
