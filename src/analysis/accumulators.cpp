#include "analysis/accumulators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/timeseries.hpp"

namespace vstream::analysis {

// ---------------------------------------------------------------------------
// OnOffAccumulator

OnOffAccumulator::OnOffAccumulator(const OnOffOptions& options) : options_{options} {
  if (options_.gap_threshold_s <= 0.0) {
    throw std::invalid_argument{"analyze_on_off: gap threshold must be positive"};
  }
}

std::optional<OnStartEvent> OnOffAccumulator::add(const capture::PacketRecord& p) {
  if (p.direction != net::Direction::kDown || p.payload_bytes == 0) return std::nullopt;
  acc_.total_bytes += p.payload_bytes;
  if (p.payload_bytes < kMinDataPayloadBytes) {  // probes
    if (p.t_s != probe_t_s_) {
      probe_t_s_ = p.t_s;
      probe_bytes_at_t_ = 0;
    }
    probe_bytes_at_t_ += p.payload_bytes;
    return std::nullopt;
  }

  std::optional<OnStartEvent> event;
  if (!in_period_) {
    in_period_ = true;
    current_ = OnPeriod{p.t_s, p.t_s, p.payload_bytes, 1};
    acc_.first_packet_s = p.t_s;
    event = OnStartEvent{p.t_s, true, 0.0};
  } else if (p.t_s - current_.end_s > options_.gap_threshold_s) {
    const double off = p.t_s - current_.end_s;
    acc_.off_durations_s.push_back(off);
    acc_.on_periods.push_back(current_);
    current_ = OnPeriod{p.t_s, p.t_s, p.payload_bytes, 1};
    event = OnStartEvent{p.t_s, false, off, probe_t_s_ == p.t_s ? probe_bytes_at_t_ : 0};
  } else {
    current_.end_s = p.t_s;
    current_.bytes += p.payload_bytes;
    ++current_.packets;
  }
  acc_.last_packet_s = p.t_s;
  return event;
}

OnOffAnalysis OnOffAccumulator::finish() const {
  OnOffAnalysis out = acc_;
  if (in_period_) out.on_periods.push_back(current_);
  if (out.on_periods.empty()) return out;

  // Buffering phase: everything before the first OFF period. With no OFF
  // period at all, the whole capture is one buffering phase (no steady
  // state) — the "no ON-OFF cycles" strategy.
  const OnPeriod& first = out.on_periods.front();
  out.buffering_bytes = first.bytes;
  out.buffering_end_s = first.end_s;

  if (out.has_steady_state()) {
    const double steady_span = out.last_packet_s - out.buffering_end_s;
    const std::uint64_t steady_bytes = out.total_bytes - out.buffering_bytes;
    out.steady_rate_bps =
        steady_span > 0.0 ? static_cast<double>(steady_bytes) * 8.0 / steady_span : 0.0;
    out.block_sizes_bytes.reserve(out.on_periods.size() - 1);
    for (std::size_t i = 1; i < out.on_periods.size(); ++i) {
      out.block_sizes_bytes.push_back(static_cast<double>(out.on_periods[i].bytes));
    }
  } else {
    out.steady_rate_bps = out.overall_rate_bps();
  }
  return out;
}

// ---------------------------------------------------------------------------
// ZeroWindowAccumulator

void ZeroWindowAccumulator::add(const capture::PacketRecord& p) {
  if (p.direction != net::Direction::kUp) return;
  if (p.window_bytes == 0) {
    if (!at_zero_) {
      ++episodes_;
      at_zero_ = true;
    }
  } else {
    at_zero_ = false;
  }
}

// ---------------------------------------------------------------------------
// RetransmissionAccumulator

void RetransmissionAccumulator::add(const capture::PacketRecord& p) {
  if (p.direction != net::Direction::kDown) return;
  total_ += p.payload_bytes;
  if (p.is_retransmission) retx_ += p.payload_bytes;
}

double RetransmissionAccumulator::fraction() const {
  return total_ == 0 ? 0.0 : static_cast<double>(retx_) / static_cast<double>(total_);
}

// ---------------------------------------------------------------------------
// HandshakeRttTracker

bool HandshakeRttTracker::add(const capture::PacketRecord& p) {
  const bool syn = net::has_flag(p.flags, net::TcpFlag::kSyn);
  if (!syn) return false;
  if (!syns_.empty() && syns_.front().rtt_s.has_value()) return false;  // already final
  const bool ack = net::has_flag(p.flags, net::TcpFlag::kAck);
  if (p.direction == net::Direction::kUp && !ack) {
    syns_.push_back(PendingSyn{p.connection_id, p.t_s, std::nullopt});
    return false;
  }
  if (p.direction != net::Direction::kDown || !ack) return false;
  // The earliest SYN-ACK strictly after each pending SYN resolves it; a SYN
  // resolved once keeps its value (first match wins, as in the batch scan).
  // A SYN-ACK stamped with its SYN's own time carries no RTT: it leaves the
  // SYN pending rather than resolve it to a zero RTT.
  for (auto& s : syns_) {
    if (!s.rtt_s.has_value() && s.connection_id == p.connection_id && s.t_s < p.t_s) {
      s.rtt_s = p.t_s - s.t_s;
    }
  }
  return !syns_.empty() && syns_.front().rtt_s.has_value();
}

std::optional<double> HandshakeRttTracker::rtt_s() const {
  for (const auto& s : syns_) {
    if (s.rtt_s.has_value()) return s.rtt_s;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// FirstRttAccumulator

void FirstRttAccumulator::open_window(double start_s, std::uint64_t tied_bytes) {
  Window w{start_s, 0.0, tied_bytes, log_.size()};
  if (rtt_s_.has_value()) bound(w, *rtt_s_);
  windows_.push_back(w);
}

void FirstRttAccumulator::add_down_data(double t_s, std::uint64_t bytes) {
  if (!rtt_s_.has_value()) {
    if (!windows_.empty()) log_.emplace_back(t_s, bytes);
    return;
  }
  // Windows open in time order and share one RTT, so they also close in
  // order: skip the closed prefix, and every window after it is open.
  while (first_open_ < windows_.size() && t_s >= windows_[first_open_].end_s) ++first_open_;
  for (std::size_t i = first_open_; i < windows_.size(); ++i) windows_[i].bytes += bytes;
}

void FirstRttAccumulator::settle(double rtt_s) {
  rtt_s_ = rtt_s;
  for (auto& w : windows_) bound(w, rtt_s);
  log_ = {};
}

void FirstRttAccumulator::bound(Window& w, double rtt_s) const {
  w.end_s = w.start_s + rtt_s;
  for (std::size_t i = w.log_from; i < log_.size() && log_[i].first < w.end_s; ++i) {
    w.bytes += log_[i].second;
  }
}

std::vector<double> FirstRttAccumulator::samples(double rtt_s) const {
  std::vector<double> out;
  out.reserve(windows_.size());
  for (Window w : windows_) {
    if (!rtt_s_.has_value()) bound(w, rtt_s);
    out.push_back(static_cast<double>(w.bytes));
  }
  return out;
}

// ---------------------------------------------------------------------------
// PeriodicityAccumulator

PeriodicityAccumulator::PeriodicityAccumulator(const PeriodicityOptions& options)
    : options_{options} {
  if (options_.bin_s <= 0.0 || options_.max_period_s <= options_.bin_s) {
    throw std::invalid_argument{"estimate_cycle_period: bad bin/period options"};
  }
  if (options_.steady_start_s.has_value()) {
    anchored_ = true;
    steady_start_ = *options_.steady_start_s;
  }
}

void PeriodicityAccumulator::bin_add(Series& series, double steady_start, double t,
                                     double amount) const {
  if (t < steady_start) return;
  ++series.records;
  const auto i = static_cast<std::size_t>((t - steady_start) / options_.bin_s);
  if (i >= series.sums.size()) {
    if (i >= max_bins(series.records)) {
      series.spill.emplace_back(i, amount);
      return;
    }
    series.sums.resize(i + 1, 0.0);
  }
  series.sums[i] += amount;
}

void PeriodicityAccumulator::add(const capture::PacketRecord& p) {
  any_packet_ = true;
  t_end_ = std::max(t_end_, p.t_s);
  if (p.direction != net::Direction::kDown || p.payload_bytes == 0) return;

  if (anchored_) {
    bin_add(series_, steady_start_, p.t_s, static_cast<double>(p.payload_bytes));
    return;
  }

  // Anchor not known yet: run the default-options gap machine, and keep the
  // data packets at/after the provisional ON end (probes inside a candidate
  // idle gap, plus the latest ON packet itself) so they can be replayed into
  // the bins once the anchor is fixed.
  const auto event = onoff_.add(p);
  const bool probe = p.payload_bytes < kMinDataPayloadBytes;
  if (event.has_value() && !event->first_period) {
    // First confirmed OFF period: the steady state starts where that gap
    // began — the batch pass's `buffering_end_s`.
    anchored_ = true;
    steady_start_ = event->start_s - event->preceding_off_s;
    for (const auto& [t, bytes] : gap_buffer_) bin_add(series_, steady_start_, t, bytes);
    gap_buffer_.clear();
    bin_add(series_, steady_start_, p.t_s, static_cast<double>(p.payload_bytes));
    return;
  }
  if (!probe) {
    // ON period started or extended: the provisional end moves to this
    // packet, anything strictly before it can no longer reach the bins.
    provisional_end_ = p.t_s;
    const auto keep = std::find_if(gap_buffer_.begin(), gap_buffer_.end(),
                                   [this](const std::pair<double, double>& e) {
                                     return e.first >= provisional_end_;
                                   });
    gap_buffer_.erase(gap_buffer_.begin(), keep);
  }
  gap_buffer_.emplace_back(p.t_s, static_cast<double>(p.payload_bytes));
}

PeriodicityResult PeriodicityAccumulator::finish() const {
  PeriodicityResult result;
  if (!any_packet_) return result;

  // Resolve the anchor and bin sums. If no OFF period was ever confirmed
  // the buffering phase never ended: the anchor is the end of the single ON
  // period (or 0 with no data at all), and the only packets at/after it are
  // still in the gap buffer.
  double steady_start = steady_start_;
  Series series = series_;
  if (!anchored_) {
    steady_start = onoff_.finish().buffering_end_s;
    for (const auto& [t, bytes] : gap_buffer_) bin_add(series, steady_start, t, bytes);
  }

  if (t_end_ - steady_start < 4.0 * options_.bin_s) return result;

  // The series covers [steady_start, t_end) in ceil(span / bin) bins;
  // anything binned past the last one is dropped.
  const double span_bins = std::ceil((t_end_ - steady_start) / options_.bin_s);
  if (span_bins > static_cast<double>(max_bins(series.records))) return result;
  const auto bins = static_cast<std::size_t>(span_bins);
  std::vector<double>& sums = series.sums;
  sums.resize(bins, 0.0);
  for (const auto& [i, amount] : series.spill) {
    if (i < bins) sums[i] += amount;
  }
  std::vector<double> values;
  values.reserve(sums.size());
  for (const double s : sums) values.push_back(s / options_.bin_s);
  result.bins_analysed = values.size();

  // A throttled stream idles for most of its steady state; a bulk transfer
  // has essentially no idle bins. Require real OFF structure before calling
  // the trace periodic, or TCP rate jitter can masquerade as a cycle.
  double peak = 0.0;
  for (const double v : values) peak = std::max(peak, v);
  if (peak <= 0.0) return result;
  std::size_t idle_bins = 0;
  for (const double v : values) {
    if (v < 0.05 * peak) ++idle_bins;
  }
  if (static_cast<double>(idle_bins) < 0.15 * static_cast<double>(values.size())) return result;

  const auto max_lag = static_cast<std::size_t>(options_.max_period_s / options_.bin_s);
  const auto acf_peak = stats::autocorrelation_peak(values, max_lag);
  if (!acf_peak.has_value()) return result;

  result.periodic = true;
  result.period_s = static_cast<double>(acf_peak->lag) * options_.bin_s;
  result.correlation = acf_peak->r;
  return result;
}

// ---------------------------------------------------------------------------
// FlowAccumulator

void FlowAccumulator::add(const capture::PacketRecord& p) {
  auto [it, inserted] = by_id_.try_emplace(p.connection_id);
  FlowRecord& f = it->second;
  if (inserted) {
    f.connection_id = p.connection_id;
    f.first_packet_s = p.t_s;
  }
  f.last_packet_s = p.t_s;

  const bool syn = net::has_flag(p.flags, net::TcpFlag::kSyn);
  const bool ack = net::has_flag(p.flags, net::TcpFlag::kAck);
  if (syn) f.saw_syn = true;
  if (net::has_flag(p.flags, net::TcpFlag::kFin)) f.saw_fin = true;

  if (p.direction == net::Direction::kUp && syn && !ack) {
    syn_time_[p.connection_id] = p.t_s;
  }
  if (p.direction == net::Direction::kDown && syn && ack && !f.handshake_rtt_s.has_value()) {
    if (const auto t0 = syn_time_.find(p.connection_id); t0 != syn_time_.end()) {
      f.handshake_rtt_s = p.t_s - t0->second;
    }
  }

  if (p.direction == net::Direction::kDown) {
    f.down_payload_bytes += p.payload_bytes;
    ++f.down_packets;
    if (p.is_retransmission) f.retransmitted_bytes += p.payload_bytes;
  } else {
    f.up_payload_bytes += p.payload_bytes;
    ++f.up_packets;
  }
}

FlowTable FlowAccumulator::finish() const {
  FlowTable table;
  table.flows.reserve(by_id_.size());
  for (const auto& [id, flow] : by_id_) table.flows.push_back(flow);
  std::sort(table.flows.begin(), table.flows.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return a.first_packet_s < b.first_packet_s;
            });
  return table;
}

}  // namespace vstream::analysis
