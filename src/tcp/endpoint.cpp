#include "tcp/endpoint.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "check/contracts.hpp"
#include "check/digest.hpp"
#include "obs/context.hpp"

namespace vstream::tcp {

using net::TcpFlag;
using net::TcpSegment;

namespace {
constexpr double kRttGranularityS = 0.010;  // RFC 6298 clock granularity G
constexpr sim::Duration kMaxRto = sim::Duration::seconds(60.0);
/// Zero-window probe interval: the persist timer's base, doubled per probe
/// up to kMaxRto.
constexpr sim::Duration kPersistInterval = sim::Duration::millis(500);
/// Delayed ACK: ack every second full-size segment, or after this timeout,
/// whichever comes first. Out-of-order data is acked immediately.
constexpr sim::Duration kDelayedAckTimeout = sim::Duration::millis(40);
}  // namespace

std::string to_string(TcpState s) {
  switch (s) {
    case TcpState::kClosed:
      return "Closed";
    case TcpState::kListen:
      return "Listen";
    case TcpState::kSynSent:
      return "SynSent";
    case TcpState::kSynReceived:
      return "SynReceived";
    case TcpState::kEstablished:
      return "Established";
    case TcpState::kFinSent:
      return "FinSent";
    case TcpState::kFinished:
      return "Finished";
  }
  return "?";
}

Endpoint::Endpoint(sim::Simulator& sim, std::uint64_t connection_id, TcpOptions options,
                   std::string label)
    : sim_{sim},
      connection_id_{connection_id},
      options_{options},
      label_{std::move(label)},
      rto_{options.initial_rto},
      persist_backoff_{kPersistInterval} {
  cwnd_ = static_cast<std::uint64_t>(options_.initial_cwnd_segments) * options_.mss;
  ssthresh_ = std::numeric_limits<std::uint64_t>::max() / 4;
  last_advertised_wnd_ = options_.recv_buffer_bytes;

  // Cache registry instruments once; the hot paths then pay one null check.
  if (obs::ObsContext* obs = sim_.obs()) {
    auto& reg = obs->metrics();
    ctr_segments_sent_ = &reg.counter("tcp.segments_sent");
    ctr_segments_retransmitted_ = &reg.counter("tcp.segments_retransmitted");
    ctr_bytes_retransmitted_ = &reg.counter("tcp.bytes_retransmitted");
    ctr_timeouts_ = &reg.counter("tcp.timeouts");
    ctr_fast_retransmits_ = &reg.counter("tcp.fast_retransmits");
    ctr_zero_window_episodes_ = &reg.counter("tcp.zero_window_episodes");
  }
}

// ---------------------------------------------------------------- probes

void Endpoint::audit_state() {
  // Sequence-space conservation: the unacked range is exactly what is in
  // flight, and nothing transmitted may exceed the bytes the application
  // queued (+ SYN and FIN marks). A violation here means the retransmit
  // accounting drifted — the silent corruption this layer exists to catch.
  VSTREAM_INVARIANT(snd_una_ <= snd_nxt_, "cumulative ACK point may not pass snd_nxt");
  VSTREAM_INVARIANT(snd_nxt_ <= snd_max_ || snd_max_ == 0,
                    "snd_nxt beyond the highest sequence ever transmitted");
  VSTREAM_INVARIANT(snd_max_ <= seq_limit(), "transmitted past the queued sequence space");
  VSTREAM_INVARIANT(sacked_.empty() || (sacked_.begin()->first >= snd_una_ &&
                                        sacked_.rbegin()->second <= snd_max_),
                    "SACK scoreboard strayed outside the unacked transmitted range");
  if (state_ == TcpState::kEstablished || state_ == TcpState::kFinSent) {
    VSTREAM_INVARIANT(cwnd_ >= options_.mss, "cwnd collapsed below one MSS");
    VSTREAM_INVARIANT(ssthresh_ >= 2ULL * options_.mss, "ssthresh below the RFC 5681 floor");
  }
  // Receive-side reassembly: buffered out-of-order runs live strictly above
  // the next expected byte, and their byte count matches the interval map.
  VSTREAM_INVARIANT(out_of_order_.empty() || out_of_order_.begin()->first > rcv_nxt_,
                    "out-of-order run at or below rcv_nxt was never delivered");
  VSTREAM_INVARIANT(ooo_bytes_ == 0 || !out_of_order_.empty(),
                    "out-of-order byte count out of sync with the interval map");

  if (check::StateDigest* digest = sim_.digest()) {
    digest->mix(connection_id_);
    digest->mix(static_cast<std::uint64_t>(state_));
    digest->mix(snd_una_);
    digest->mix(snd_nxt_);
    digest->mix(cwnd_);
    digest->mix(ssthresh_);
    digest->mix(rcv_nxt_);
    digest->mix(unread_bytes_);
  }
}

void Endpoint::probe_cwnd() {
  obs::ObsContext* obs = sim_.obs();
  if (obs == nullptr || !obs->trace().active()) return;
  obs::TcpCwndSample s;
  s.t_s = sim_.now().to_seconds();
  s.connection_id = connection_id_;
  s.endpoint = label_;
  s.cwnd = cwnd_;
  s.ssthresh = ssthresh_;
  s.rwnd = peer_wnd_;
  s.adv_wnd = last_advertised_wnd_;
  s.rto_s = rto_.to_seconds();
  s.bytes_in_flight = bytes_in_flight();
  obs->trace().emit(s);
}

void Endpoint::note_advertised_window(std::uint64_t window_bytes) {
  const bool was_zero = advertising_zero_window_;
  last_advertised_wnd_ = window_bytes;
  // Sample at our own window's zero-crossings too: the sender-side sample
  // coincides with the captured segment, so the cwnd samples reconstruct the
  // wire's rwnd-zero episodes even when the segment is still in flight at
  // the capture cutoff.
  if ((window_bytes == 0) != was_zero) probe_cwnd();
  if (window_bytes == 0 && !advertising_zero_window_) {
    advertising_zero_window_ = true;
    zero_window_since_ = sim_.now();
    if (ctr_zero_window_episodes_ != nullptr) ctr_zero_window_episodes_->inc();
  } else if (window_bytes > 0 && advertising_zero_window_) {
    advertising_zero_window_ = false;
    // The episode is only known at its end: retro-emit it as a span so the
    // timeline exporter renders a proper slice.
    obs::emit_span(sim_, zero_window_since_.to_seconds(), obs::SpanCategory::kTcp, "zero_window",
                   connection_id_, label_);
  }
}

void Endpoint::attach(net::Link& tx_link, std::shared_ptr<TagChannel> tx_tags,
                      std::shared_ptr<TagChannel> rx_tags) {
  tx_link_ = &tx_link;
  tx_tags_ = std::move(tx_tags);
  rx_tags_ = std::move(rx_tags);
}

std::uint64_t Endpoint::advertised_window() const {
  const std::uint64_t used = unread_bytes_ + ooo_bytes_;
  return used >= options_.recv_buffer_bytes ? 0 : options_.recv_buffer_bytes - used;
}

std::uint64_t Endpoint::seq_limit() const {
  return 1 + app_bytes_queued_ + (fin_queued_ ? 1 : 0);
}

std::uint64_t Endpoint::unacked_bytes() const {
  const std::uint64_t data_end = 1 + app_bytes_queued_;
  const std::uint64_t una = std::min(std::max<std::uint64_t>(snd_una_, 1), data_end);
  return data_end - una;
}

std::uint64_t Endpoint::untransmitted_bytes() const {
  const std::uint64_t data_end = 1 + app_bytes_queued_;
  const std::uint64_t nxt = std::min(std::max<std::uint64_t>(snd_nxt_, 1), data_end);
  return data_end - nxt;
}

bool Endpoint::at_eof() const { return peer_fin_delivered_ && unread_bytes_ == 0; }

// ---------------------------------------------------------------- transmit

void Endpoint::transmit(TcpSegment segment) {
  if (tx_link_ == nullptr) throw std::logic_error{"Endpoint: attach() before sending"};
  segment.connection_id = connection_id_;
  segment.host = options_.host_tag;
  segment.window_bytes = advertised_window();
  last_advertised_wnd_ = segment.window_bytes;
  note_advertised_window(segment.window_bytes);
  if (!segment.has(TcpFlag::kSyn) || segment.has(TcpFlag::kAck)) {
    // Everything after the initial SYN carries a cumulative ACK.
    segment.flags = segment.flags | TcpFlag::kAck;
    segment.ack = rcv_nxt_;
    // SACK option: advertise the reassembly holes so the peer can recover
    // several losses per round trip.
    segment.sack.clear();
    for (const auto& [start, len] : out_of_order_) {
      if (segment.sack.size() == net::TcpSegment::kMaxSackBlocks) break;
      segment.sack.emplace_back(start, start + len);
    }
  }
  ++stats_.segments_sent;
  if (ctr_segments_sent_ != nullptr) ctr_segments_sent_->inc();
  // ACK bookkeeping: transmitting anything acknowledges received data.
  delack_timer_.cancel();
  segments_since_ack_ = 0;

  const bool consumes_seq =
      segment.payload_bytes > 0 || segment.has(TcpFlag::kSyn) || segment.has(TcpFlag::kFin);
  if (consumes_seq) {
    last_transmit_at_ = sim_.now();
    if (!rto_timer_.pending()) arm_rto();
    const std::uint64_t consumed = segment.payload_bytes +
                                   (segment.has(TcpFlag::kSyn) ? 1 : 0) +
                                   (segment.has(TcpFlag::kFin) ? 1 : 0);
    snd_max_ = std::max(snd_max_, segment.seq + consumed);
    // RTT timing (Karn: only first transmissions are timed).
    if (!timed_seq_.has_value() && !segment.is_retransmission) {
      timed_seq_ = segment.seq + consumed;
      timed_at_ = sim_.now();
    }
  }
  tx_link_->send(segment);
}

void Endpoint::send_pure_ack() {
  TcpSegment ack;
  ack.seq = snd_nxt_;
  ack.flags = TcpFlag::kAck;
  transmit(ack);
}

// ---------------------------------------------------------------- open/close

void Endpoint::connect() {
  if (state_ != TcpState::kClosed) throw std::logic_error{"Endpoint::connect: already open"};
  state_ = TcpState::kSynSent;
  TcpSegment syn;
  syn.seq = 0;
  syn.flags = TcpFlag::kSyn;
  snd_nxt_ = 1;
  transmit(syn);
}

void Endpoint::listen() {
  if (state_ != TcpState::kClosed) throw std::logic_error{"Endpoint::listen: already open"};
  state_ = TcpState::kListen;
}

void Endpoint::send(std::uint64_t bytes, std::any tag) {
  if (fin_queued_) throw std::logic_error{"Endpoint::send: stream already closed"};
  app_bytes_queued_ += bytes;
  if (tag.has_value()) {
    if (!tx_tags_) throw std::logic_error{"Endpoint::send: no tag channel attached"};
    tx_tags_->attach(app_bytes_queued_, std::move(tag));
  }
  try_send();
}

void Endpoint::close() {
  if (fin_queued_) return;
  fin_queued_ = true;
  try_send();
}

// ---------------------------------------------------------------- send loop

std::uint64_t Endpoint::send_limit() const {
  const std::uint64_t wnd = peer_wnd_seen_ ? peer_wnd_ : cwnd_;
  return std::min(cwnd_, wnd);
}

void Endpoint::maybe_idle_restart() {
  if (!options_.reset_cwnd_after_idle) return;
  if (bytes_in_flight() != 0) return;
  if (last_transmit_at_ == sim::SimTime{}) return;
  if (sim_.now() - last_transmit_at_ > rto_) {
    cwnd_ = static_cast<std::uint64_t>(options_.initial_cwnd_segments) * options_.mss;
    probe_cwnd();
  }
}

void Endpoint::try_send() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kFinSent) return;
  maybe_idle_restart();

  const std::uint64_t data_end = 1 + app_bytes_queued_;
  while (true) {
    if (snd_una_ >= retransmit_until_) retransmit_until_ = 0;  // repair done
    // Post-timeout hole repair: skip over ranges the receiver already holds.
    if (snd_nxt_ < retransmit_until_) {
      const auto it = sacked_.upper_bound(snd_nxt_);
      if (it != sacked_.begin()) {
        const auto prev = std::prev(it);
        if (prev->first <= snd_nxt_ && prev->second > snd_nxt_) {
          snd_nxt_ = prev->second;
          continue;
        }
      }
    }

    const std::uint64_t limit = send_limit();
    const std::uint64_t flight = bytes_in_flight();
    if (flight >= limit) break;
    const std::uint64_t room = limit - flight;

    if (snd_nxt_ < data_end) {
      const bool repairing = snd_nxt_ < retransmit_until_;
      std::uint64_t payload = std::min<std::uint64_t>(
          {static_cast<std::uint64_t>(options_.mss), data_end - snd_nxt_, room});
      if (repairing) {
        // Stay within the repair range and stop at the next SACKed run.
        payload = std::min(payload, retransmit_until_ - snd_nxt_);
        const auto next = sacked_.lower_bound(snd_nxt_ + 1);
        if (next != sacked_.end()) payload = std::min(payload, next->first - snd_nxt_);
      }
      if (payload == 0) break;
      TcpSegment seg;
      seg.seq = snd_nxt_;
      seg.payload_bytes = static_cast<std::uint32_t>(payload);
      seg.is_retransmission = repairing;
      if (snd_nxt_ + payload == data_end) seg.flags = seg.flags | TcpFlag::kPsh;
      snd_nxt_ += payload;
      if (repairing) {
        stats_.bytes_retransmitted += payload;
        ++stats_.segments_retransmitted;
        if (ctr_segments_retransmitted_ != nullptr) {
          ctr_segments_retransmitted_->inc();
          ctr_bytes_retransmitted_->inc(payload);
        }
      } else {
        stats_.bytes_sent += payload;
      }
      transmit(seg);
    } else if (fin_queued_ && snd_nxt_ == data_end) {
      TcpSegment fin;
      fin.seq = snd_nxt_;
      fin.flags = TcpFlag::kFin;
      fin.is_retransmission = fin_sent_;  // re-sent after an RTO rollback
      snd_nxt_ += 1;
      fin_sent_ = true;
      state_ = TcpState::kFinSent;
      transmit(fin);
    } else {
      break;
    }
  }

  // Zero-window persistence: data waiting, nothing in flight, window shut.
  if (snd_nxt_ < data_end && bytes_in_flight() == 0 && peer_wnd_seen_ && peer_wnd_ == 0 &&
      !persist_timer_.pending()) {
    arm_persist();
  }
}

void Endpoint::arm_persist() {
  persist_timer_ = sim_.schedule_after(persist_backoff_, [this] { on_persist(); });
}

void Endpoint::on_persist() {
  const std::uint64_t data_end = 1 + app_bytes_queued_;
  if (state_ != TcpState::kEstablished && state_ != TcpState::kFinSent) return;
  if (peer_wnd_ != 0 || snd_nxt_ >= data_end) {
    persist_backoff_ = kPersistInterval;
    try_send();
    return;
  }
  // One-byte window probe. Unlike ordinary data it neither advances
  // snd_nxt nor arms the RTO: the persist timer itself is the
  // retransmission mechanism, and probe loss must not collapse cwnd
  // (RFC 1122 §4.2.2.17). The byte is re-sent normally once the window
  // opens, so the receiver simply discards the out-of-window copy.
  TcpSegment probe;
  probe.seq = snd_nxt_;
  probe.payload_bytes = 1;
  probe.is_retransmission = true;  // annotate for the capture tap
  probe.flags = TcpFlag::kAck;
  probe.ack = rcv_nxt_;
  probe.window_bytes = advertised_window();
  probe.connection_id = connection_id_;
  probe.host = options_.host_tag;
  note_advertised_window(probe.window_bytes);
  ++stats_.segments_sent;
  if (ctr_segments_sent_ != nullptr) ctr_segments_sent_->inc();
  tx_link_->send(probe);
  persist_backoff_ = std::min(persist_backoff_ + persist_backoff_, kMaxRto);
  arm_persist();
}

// ---------------------------------------------------------------- timers

void Endpoint::arm_rto() {
  rto_timer_.cancel();
  rto_timer_ = sim_.schedule_after(rto_, [this] { on_rto(); });
}

void Endpoint::cancel_rto() { rto_timer_.cancel(); }

void Endpoint::on_rto() {
  if (state_ == TcpState::kFinished || state_ == TcpState::kClosed) return;
  if (snd_una_ >= snd_nxt_ && state_ != TcpState::kSynSent && state_ != TcpState::kSynReceived) {
    return;  // nothing outstanding; stale timer
  }
  ++stats_.timeouts;
  if (ctr_timeouts_ != nullptr) ctr_timeouts_->inc();
  const std::uint64_t flight = std::max<std::uint64_t>(bytes_in_flight(), options_.mss);
  ssthresh_ = std::max<std::uint64_t>(flight / 2, 2ULL * options_.mss);
  cwnd_ = options_.mss;  // RFC 5681 loss window
  VSTREAM_POSTCONDITION(ssthresh_ >= 2ULL * options_.mss,
                        "RTO must leave ssthresh at >= 2 MSS (RFC 5681)");
  in_fast_recovery_ = false;
  dup_acks_ = 0;
  rexmit_high_ = 0;
  rto_ = std::min(rto_ + rto_, kMaxRto);  // exponential backoff
  if (!recovery_span_.active()) {
    recovery_span_ =
        obs::open_span(sim_, obs::SpanCategory::kTcp, "rto_recovery", connection_id_);
  }
  probe_cwnd();

  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived) {
    retransmit_front();
    arm_rto();
    return;
  }
  // Roll back and re-send everything outstanding under slow start, skipping
  // runs the receiver has SACKed. This is what keeps multi-loss windows from
  // wedging the pipe accounting.
  retransmit_until_ = std::max(retransmit_until_, snd_nxt_);
  snd_nxt_ = snd_una_;
  arm_rto();
  try_send();
}

// ---------------------------------------------------------------- retransmit

void Endpoint::merge_sacked(std::uint64_t start, std::uint64_t end) {
  if (end <= start) return;
  auto it = sacked_.upper_bound(start);
  if (it != sacked_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= start) {
      start = prev->first;
      end = std::max(end, prev->second);
      sacked_.erase(prev);
    }
  }
  it = sacked_.lower_bound(start);
  while (it != sacked_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = sacked_.erase(it);
  }
  sacked_.emplace(start, end);
}

void Endpoint::prune_sacked() {
  auto it = sacked_.begin();
  while (it != sacked_.end() && it->second <= snd_una_) it = sacked_.erase(it);
  if (it != sacked_.end() && it->first < snd_una_) {
    const std::uint64_t end = it->second;
    sacked_.erase(it);
    sacked_.emplace(snd_una_, end);
  }
}

bool Endpoint::retransmit_next_hole() {
  timed_seq_.reset();  // Karn's algorithm: never time retransmitted ranges
  const std::uint64_t data_end = 1 + app_bytes_queued_;

  std::uint64_t hole = std::max(snd_una_, rexmit_high_);
  // Skip over SACKed runs.
  for (auto it = sacked_.begin(); it != sacked_.end() && it->first <= hole; ++it) {
    if (it->second > hole) hole = it->second;
  }
  // RFC 6675 discipline: only sequences *below* the highest SACKed byte are
  // provably lost; beyond it the data may simply still be in flight. With
  // no SACK information, fall back to the classic first-segment retransmit.
  const std::uint64_t ceiling =
      sacked_.empty() ? snd_una_ + options_.mss : sacked_.rbegin()->second;
  if (hole >= ceiling) return false;
  if (hole >= snd_nxt_) return false;

  TcpSegment seg;
  seg.is_retransmission = true;
  if (hole < data_end) {
    std::uint64_t len = std::min<std::uint64_t>(
        {static_cast<std::uint64_t>(options_.mss), data_end - hole, snd_nxt_ - hole});
    // Do not overlap the next SACKed run.
    const auto next = sacked_.upper_bound(hole);
    if (next != sacked_.end()) len = std::min(len, next->first - hole);
    seg.seq = hole;
    seg.payload_bytes = static_cast<std::uint32_t>(len);
    stats_.bytes_retransmitted += len;
    ++stats_.segments_retransmitted;
    if (ctr_segments_retransmitted_ != nullptr) {
      ctr_segments_retransmitted_->inc();
      ctr_bytes_retransmitted_->inc(len);
    }
    rexmit_high_ = hole + len;
    transmit(seg);
    return true;
  }
  if (fin_sent_ && hole == data_end) {
    seg.seq = hole;
    seg.flags = TcpFlag::kFin;
    ++stats_.segments_retransmitted;
    if (ctr_segments_retransmitted_ != nullptr) ctr_segments_retransmitted_->inc();
    rexmit_high_ = hole + 1;
    transmit(seg);
    return true;
  }
  return false;
}

void Endpoint::retransmit_front() {
  TcpSegment seg;
  seg.is_retransmission = true;

  if (state_ == TcpState::kSynSent) {
    timed_seq_.reset();
    seg.seq = 0;
    seg.flags = TcpFlag::kSyn;
    transmit(seg);
    return;
  }
  if (state_ == TcpState::kSynReceived) {
    timed_seq_.reset();
    seg.seq = 0;
    seg.flags = TcpFlag::kSyn | TcpFlag::kAck;
    transmit(seg);
    return;
  }
  if (snd_una_ >= snd_nxt_) return;
  rexmit_high_ = 0;  // restart recovery from the cumulative-ACK point
  (void)retransmit_next_hole();
}

// ---------------------------------------------------------------- receive

void Endpoint::note_peer_window(const TcpSegment& segment) {
  const bool was_zero = peer_wnd_seen_ && peer_wnd_ == 0;
  peer_wnd_ = segment.window_bytes;
  peer_wnd_seen_ = true;
  if (peer_wnd_ > 0) {
    persist_timer_.cancel();
    persist_backoff_ = kPersistInterval;
  }
  // Sample on every rwnd zero-crossing so a cwnd trace reconstructs the
  // receiver's starvation episodes exactly (Fig 2b / 6a signal).
  if ((peer_wnd_ == 0) != was_zero) probe_cwnd();
}

void Endpoint::on_segment(const TcpSegment& segment) {
  on_segment_impl(segment);
  audit_state();
}

void Endpoint::on_segment_impl(const TcpSegment& segment) {
  const std::uint64_t prev_wnd = peer_wnd_;
  const bool had_wnd = peer_wnd_seen_;

  switch (state_) {
    case TcpState::kClosed:
    case TcpState::kFinished:
      return;

    case TcpState::kListen:
      if (segment.has(TcpFlag::kSyn) && !segment.has(TcpFlag::kAck)) {
        rcv_nxt_ = 1;
        note_peer_window(segment);
        state_ = TcpState::kSynReceived;
        TcpSegment synack;
        synack.seq = 0;
        synack.flags = TcpFlag::kSyn | TcpFlag::kAck;
        snd_nxt_ = 1;
        transmit(synack);
      }
      return;

    case TcpState::kSynSent:
      if (segment.has(TcpFlag::kSyn) && segment.has(TcpFlag::kAck) && segment.ack >= 1) {
        rcv_nxt_ = 1;
        snd_una_ = 1;
        note_peer_window(segment);
        sample_rtt(1);
        cancel_rto();
        rto_timer_ = {};
        state_ = TcpState::kEstablished;
        send_pure_ack();
        if (on_established_) on_established_();
        try_send();
      }
      return;

    case TcpState::kSynReceived:
      if (segment.has(TcpFlag::kAck) && segment.ack >= 1) {
        snd_una_ = std::max<std::uint64_t>(snd_una_, 1);
        note_peer_window(segment);
        sample_rtt(1);
        cancel_rto();
        state_ = TcpState::kEstablished;
        if (on_established_) on_established_();
        // The handshake-completing ACK may already carry data (or a FIN).
        if (segment.payload_bytes > 0 || segment.has(TcpFlag::kFin)) handle_data(segment);
        try_send();
      }
      return;

    case TcpState::kEstablished:
    case TcpState::kFinSent:
      break;
  }

  note_peer_window(segment);
  if (segment.has(TcpFlag::kAck)) {
    // Only a genuine window *reopening* (from nearly closed) is excluded
    // from duplicate-ACK counting; ordinary fluctuation of the advertised
    // window must not mask dup ACKs or fast retransmit never triggers.
    const bool window_update =
        had_wnd && prev_wnd < options_.mss && segment.window_bytes > prev_wnd;
    handle_ack(segment, window_update);
  }
  if (segment.payload_bytes > 0 || segment.has(TcpFlag::kFin)) handle_data(segment);
  try_send();
}

void Endpoint::handle_ack(const TcpSegment& segment, bool window_update) {
  const std::uint64_t ack = segment.ack;
  // Acks above everything ever sent are bogus. Acks above a rolled-back
  // snd_nxt (post-RTO) are valid: earlier in-flight data filled the hole.
  if (ack > snd_max_) return;

  for (const auto& [start, end] : segment.sack) merge_sacked(start, end);

  if (ack > snd_una_) {
    const std::uint64_t acked = ack - snd_una_;
    snd_una_ = ack;
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    prune_sacked();
    ++stats_.acks_received;
    sample_rtt(ack);
    on_new_ack(acked, ack);
    if (snd_una_ >= snd_nxt_) {
      cancel_rto();
      rto_ = std::min(rto_, kMaxRto);
    } else {
      arm_rto();
    }
    if (fin_sent_ && snd_una_ >= seq_limit()) {
      state_ = TcpState::kFinished;
      cancel_rto();
    }
    return;
  }

  // Potential duplicate ACK.
  if (ack == snd_una_ && snd_nxt_ > snd_una_ && segment.payload_bytes == 0 &&
      !segment.has(TcpFlag::kSyn) && !segment.has(TcpFlag::kFin) && !window_update) {
    ++stats_.dup_acks_received;
    ++dup_acks_;
    if (!in_fast_recovery_ && dup_acks_ == 3) {
      enter_fast_recovery();
    } else if (in_fast_recovery_ && dup_acks_ > 3) {
      cwnd_ += options_.mss;  // inflate per extra dup ack
      // SACK-driven recovery: each returning ACK clocks out one more hole.
      (void)retransmit_next_hole();
    }
  }
}

void Endpoint::on_new_ack(std::uint64_t acked_bytes, std::uint64_t ack) {
  if (in_fast_recovery_) {
    if (ack >= recover_) {
      // Full ACK: deflate and leave recovery.
      cwnd_ = ssthresh_;
      in_fast_recovery_ = false;
      dup_acks_ = 0;
      rexmit_high_ = 0;
      recovery_span_.close("recovered");
    } else {
      // Partial ACK: retransmit the next un-SACKed hole, partial deflate.
      (void)retransmit_next_hole();
      cwnd_ = (cwnd_ > acked_bytes ? cwnd_ - acked_bytes : options_.mss);
      cwnd_ += options_.mss;
      arm_rto();
    }
    probe_cwnd();
    return;
  }

  dup_acks_ = 0;
  // A forward ACK after an RTO rollback ends that recovery episode.
  recovery_span_.close("recovered");
  if (cwnd_ < ssthresh_) {
    // Slow start with Appropriate Byte Counting (RFC 3465, L=2), which keeps
    // exponential growth under delayed ACKs.
    cwnd_ += std::min<std::uint64_t>(acked_bytes, 2ULL * options_.mss);
  } else {
    const std::uint64_t inc =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(options_.mss) * options_.mss / cwnd_);
    cwnd_ += inc;  // congestion avoidance, ~1 MSS per RTT
  }
  VSTREAM_POSTCONDITION(cwnd_ >= options_.mss, "ACK processing shrank cwnd below one MSS");
  probe_cwnd();
}

void Endpoint::enter_fast_recovery() {
  const std::uint64_t flight = std::max<std::uint64_t>(bytes_in_flight(), options_.mss);
  ssthresh_ = std::max<std::uint64_t>(flight / 2, 2ULL * options_.mss);
  cwnd_ = ssthresh_ + 3ULL * options_.mss;
  recover_ = snd_nxt_;
  in_fast_recovery_ = true;
  ++stats_.fast_retransmits;
  if (ctr_fast_retransmits_ != nullptr) ctr_fast_retransmits_->inc();
  if (!recovery_span_.active()) {
    recovery_span_ =
        obs::open_span(sim_, obs::SpanCategory::kTcp, "fast_recovery", connection_id_);
  }
  probe_cwnd();
  rexmit_high_ = 0;
  (void)retransmit_next_hole();
  arm_rto();
}

void Endpoint::sample_rtt(std::uint64_t ack) {
  if (!timed_seq_.has_value() || ack < *timed_seq_) return;
  const double r = (sim_.now() - timed_at_).to_seconds();
  timed_seq_.reset();
  if (r < 0.0) return;
  if (!have_rtt_sample_) {
    srtt_s_ = r;
    rttvar_s_ = r / 2.0;
    have_rtt_sample_ = true;
  } else {
    constexpr double kAlpha = 1.0 / 8.0;
    constexpr double kBeta = 1.0 / 4.0;
    rttvar_s_ = (1.0 - kBeta) * rttvar_s_ + kBeta * std::abs(srtt_s_ - r);
    srtt_s_ = (1.0 - kAlpha) * srtt_s_ + kAlpha * r;
  }
  stats_.last_srtt_s = srtt_s_;
  const double rto_s = srtt_s_ + std::max(kRttGranularityS, 4.0 * rttvar_s_);
  rto_ = std::clamp(sim::Duration::seconds(rto_s), options_.min_rto, kMaxRto);
}

// ---------------------------------------------------------------- data path

void Endpoint::handle_data(const TcpSegment& segment) {
  const std::uint64_t seq = segment.seq;
  const std::uint64_t len = segment.payload_bytes;
  const std::uint64_t end = seq + len;
  const std::uint64_t ooo_before = ooo_bytes_;
  const std::uint64_t rcv_nxt_before = rcv_nxt_;
  bool immediate_ack = false;
  bool became_readable = false;

  if (segment.has(TcpFlag::kFin) && !peer_fin_seq_.has_value()) {
    peer_fin_seq_ = end;  // FIN occupies the seq right after its payload
  }

  // Buffer room guards against bytes beyond the advertised window (e.g.
  // zero-window persist probes), which a real receiver discards. Bytes that
  // fill the hole below buffered out-of-order data were inside the window
  // when sent, so they are always acceptable — rejecting them would wedge
  // the connection (the hole could never close).
  const std::uint64_t used = unread_bytes_ + ooo_bytes_;
  const std::uint64_t room =
      options_.recv_buffer_bytes > used ? options_.recv_buffer_bytes - used : 0;
  std::uint64_t accept_limit = room;
  if (!out_of_order_.empty() && out_of_order_.begin()->first > rcv_nxt_) {
    accept_limit = std::max(accept_limit, out_of_order_.begin()->first - rcv_nxt_);
  }

  if (end > rcv_nxt_ && seq <= rcv_nxt_) {
    // In-order (possibly partially duplicate) data.
    const std::uint64_t wanted = end - rcv_nxt_;
    const std::uint64_t fresh = std::min(wanted, accept_limit);
    rcv_nxt_ += fresh;
    unread_bytes_ += fresh;
    stats_.bytes_received += fresh;
    became_readable = fresh > 0;
    if (fresh < wanted) immediate_ack = true;  // trimmed: re-advertise window now
    deliver_in_order();  // absorb any out-of-order runs now contiguous
  } else if (seq > rcv_nxt_ && len > 0) {
    // Hole: stash (capacity permitting) and signal with an immediate dup ACK.
    if (len <= room) insert_out_of_order(seq, len);
    immediate_ack = true;
  } else if (len > 0) {
    immediate_ack = true;  // stale retransmission: re-ack immediately
  }

  // RFC 5681 §4.2: ack immediately while the reassembly buffer has holes,
  // and when a segment fills one — this is what lets the sender's loss
  // recovery proceed at ACK speed instead of delayed-ACK speed.
  if (!out_of_order_.empty() || ooo_bytes_ < ooo_before) immediate_ack = true;

  if (peer_fin_seq_.has_value() && !peer_fin_delivered_ && rcv_nxt_ == *peer_fin_seq_) {
    rcv_nxt_ = *peer_fin_seq_ + 1;  // consume the FIN
    peer_fin_delivered_ = true;
    immediate_ack = true;
  }

  VSTREAM_POSTCONDITION(rcv_nxt_ >= rcv_nxt_before,
                        "receive path moved the in-order delivery point backwards");
  // Give the application its data before acking, so a synchronous reader's
  // drain is reflected in the advertised window the ACK carries.
  if (became_readable && on_readable_) on_readable_();
  schedule_ack(immediate_ack);
}

void Endpoint::insert_out_of_order(std::uint64_t seq, std::uint64_t len) {
  // Keep the reassembly map as disjoint merged intervals.
  std::uint64_t start = seq;
  std::uint64_t end = seq + len;
  auto it = out_of_order_.upper_bound(start);
  if (it != out_of_order_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second >= start) {
      start = prev->first;
      end = std::max(end, prev->first + prev->second);
      out_of_order_.erase(prev);
    }
  }
  it = out_of_order_.lower_bound(start);
  while (it != out_of_order_.end() && it->first <= end) {
    end = std::max(end, it->first + it->second);
    it = out_of_order_.erase(it);
  }
  out_of_order_.emplace(start, end - start);
  recount_out_of_order();
}

void Endpoint::recount_out_of_order() {
  ooo_bytes_ = 0;
  for (const auto& [start, len] : out_of_order_) ooo_bytes_ += len;
}

void Endpoint::deliver_in_order() {
  auto it = out_of_order_.begin();
  while (it != out_of_order_.end() && it->first <= rcv_nxt_) {
    const std::uint64_t seg_end = it->first + it->second;
    if (seg_end > rcv_nxt_) {
      const std::uint64_t fresh = seg_end - rcv_nxt_;
      rcv_nxt_ = seg_end;
      unread_bytes_ += fresh;
      stats_.bytes_received += fresh;
    }
    it = out_of_order_.erase(it);
  }
  recount_out_of_order();
}

void Endpoint::schedule_ack(bool immediate) {
  if (immediate) {
    send_pure_ack();
    return;
  }
  ++segments_since_ack_;
  if (segments_since_ack_ >= 2) {
    send_pure_ack();
    return;
  }
  if (!delack_timer_.pending()) {
    delack_timer_ = sim_.schedule_after(kDelayedAckTimeout, [this] {
      if (segments_since_ack_ > 0) send_pure_ack();
    });
  }
}

Endpoint::ReadResult Endpoint::read(std::uint64_t max_bytes) {
  ReadResult result;
  const std::uint64_t n = std::min(max_bytes, unread_bytes_);
  unread_bytes_ -= n;
  total_read_ += n;
  result.bytes = n;
  if (rx_tags_) result.tags = rx_tags_->collect(total_read_);
  result.eof = at_eof();

  // Window update: tell a zero/small-window peer that room opened up.
  if (n > 0 && last_advertised_wnd_ < options_.mss && advertised_window() >= options_.mss &&
      (state_ == TcpState::kEstablished || state_ == TcpState::kFinSent)) {
    send_pure_ack();
  }
  return result;
}

}  // namespace vstream::tcp
