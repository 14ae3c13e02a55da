#include "obs/trace.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "obs/json.hpp"

namespace vstream::obs {

namespace {

/// Trace times and rates print with nine significant digits.
constexpr json::Format kDigits{9};

/// Each event's JSONL fields in line order: the one list the writer (over a
/// const event) and the reader (over a default event) both walk.
template <typename Event, typename Visit>
void visit_fields(Event& e, Visit& f) {
  using E = std::remove_const_t<Event>;
  if constexpr (std::is_same_v<E, TcpCwndSample>) {
    f("t", e.t_s);
    f("conn", e.connection_id);
    f("endpoint", e.endpoint);
    f("cwnd", e.cwnd);
    f("ssthresh", e.ssthresh);
    f("rwnd", e.rwnd);
    f("adv_wnd", e.adv_wnd);
    f("rto_s", e.rto_s);
    f("in_flight", e.bytes_in_flight);
  } else if constexpr (std::is_same_v<E, SimLoopSample>) {
    f("t", e.t_s);
    f("events", e.events_processed);
    f("pending", e.events_pending);
    f("max_pending", e.max_events_pending);
    f("sim_wall_ratio", e.sim_wall_ratio);
  } else if constexpr (std::is_same_v<E, PacingBlockEmitted>) {
    f("t", e.t_s);
    f("conn", e.connection_id);
    f("bytes", e.bytes);
    f("initial_burst", e.initial_burst);
  } else if constexpr (std::is_same_v<E, PlayerStall>) {
    f("t", e.t_s);
    f("stalls", e.stall_count);
  } else if constexpr (std::is_same_v<E, PlayerInterrupt>) {
    f("t", e.t_s);
    f("watched_s", e.watched_s);
  } else if constexpr (std::is_same_v<E, ZeroWindowEpisode>) {
    f("t", e.t_s);
    f("conn", e.connection_id);
    f("endpoint", e.endpoint);
    f("duration_s", e.duration_s);
  } else if constexpr (std::is_same_v<E, LinkFault>) {
    f("t", e.t_s);
    f("kind", e.kind);
    f("begin", e.begin);
    f("rate_factor", e.rate_factor);
  } else if constexpr (std::is_same_v<E, FetchRetry>) {
    f("t", e.t_s);
    f("attempt", e.attempt);
    f("backoff_s", e.backoff_s);
    f("remaining_bytes", e.remaining_bytes);
    f("gave_up", e.gave_up);
  } else {
    static_assert(std::is_same_v<E, SpanRecord>);
    f("t", e.t_end_s);
    f("begin_s", e.t_begin_s);
    f("mark_s", e.t_mark_s);
    f("span_id", e.span_id);
    f("id", e.id);
    f("depth", e.depth);
    f("cat", e.category);
    f("name", e.name);
    f("detail", e.detail);
  }
}

/// Writes each field in its type's form; a flag is written as 0 or 1.
struct JsonlWriter {
  json::Object& out;

  void operator()(const char* key, double v) const { out.number(key, v, kDigits); }
  void operator()(const char* key, std::uint64_t v) const { out.integer(key, v); }
  void operator()(const char* key, std::uint32_t v) const { out.integer(key, v); }
  void operator()(const char* key, bool v) const { out.integer(key, v ? 1 : 0); }
  void operator()(const char* key, const std::string& v) const { out.string(key, v); }
};

/// Reads one line's fields into an event. A missing field keeps the
/// event's default; a present field that is not a valid value of its type
/// and width marks the whole line bad.
struct JsonlReader {
  std::string_view line;
  bool ok{true};

  template <typename T>
  void operator()(const char* key, T& value) {
    if (json::read(line, key, value) == json::Field::kInvalid) ok = false;
  }
  void operator()(const char* key, bool& value) {
    std::uint64_t v = value ? 1 : 0;
    (*this)(key, v);
    value = v != 0;
  }
};

}  // namespace

const char* event_type(const TraceEvent& event) {
  struct Namer {
    const char* operator()(const TcpCwndSample&) const { return "tcp_cwnd"; }
    const char* operator()(const SimLoopSample&) const { return "sim_loop"; }
    const char* operator()(const PacingBlockEmitted&) const { return "pacing_block"; }
    const char* operator()(const PlayerStall&) const { return "player_stall"; }
    const char* operator()(const PlayerInterrupt&) const { return "player_interrupt"; }
    const char* operator()(const ZeroWindowEpisode&) const { return "zero_window"; }
    const char* operator()(const LinkFault&) const { return "link_fault"; }
    const char* operator()(const FetchRetry&) const { return "fetch_retry"; }
    const char* operator()(const SpanRecord&) const { return "span"; }
  };
  return std::visit(Namer{}, event);
}

std::string to_jsonl(const TraceEvent& event) {
  json::Object out;
  out.string("type", event_type(event));
  JsonlWriter writer{out};
  std::visit([&writer](const auto& e) { visit_fields(e, writer); }, event);
  return out.close();
}

std::optional<double> jsonl_number(const std::string& line, const std::string& key) {
  double v = 0.0;
  if (json::read(line, key, v) != json::Field::kOk) return std::nullopt;
  return v;
}

std::optional<std::string> jsonl_string(const std::string& line, const std::string& key) {
  std::string v;
  if (json::read(line, key, v) != json::Field::kOk) return std::nullopt;
  return v;
}

std::optional<TraceEvent> from_jsonl(const std::string& line) {
  const auto type = jsonl_string(line, "type");
  if (!type) return std::nullopt;
  // Every alternative starts from its defaults; the one whose tag matches
  // reads its fields over them. A link fault without `begin` has always
  // read as an end.
  for (TraceEvent event :
       {TraceEvent{TcpCwndSample{}}, TraceEvent{SimLoopSample{}}, TraceEvent{PacingBlockEmitted{}},
        TraceEvent{PlayerStall{}}, TraceEvent{PlayerInterrupt{}}, TraceEvent{ZeroWindowEpisode{}},
        TraceEvent{LinkFault{0.0, {}, false}}, TraceEvent{FetchRetry{}}, TraceEvent{SpanRecord{}}}) {
    if (*type != event_type(event)) continue;
    JsonlReader reader{line};
    std::visit([&reader](auto& e) { visit_fields(e, reader); }, event);
    if (!reader.ok) return std::nullopt;
    return event;
  }
  return std::nullopt;
}

void TraceBus::attach(TraceSink* sink) {
  if (sink == nullptr) throw std::invalid_argument{"TraceBus::attach: null sink"};
  if (std::find(sinks_.begin(), sinks_.end(), sink) == sinks_.end()) sinks_.push_back(sink);
}

void TraceBus::detach(TraceSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

JsonlFileSink::JsonlFileSink(const std::string& path) : out_{path} {
  if (!out_) throw std::runtime_error{"JsonlFileSink: cannot open " + path};
}

void JsonlFileSink::on_event(const TraceEvent& event) {
  out_ << to_jsonl(event) << '\n';
  ++lines_;
}

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_{capacity} {
  if (capacity_ == 0) throw std::invalid_argument{"RingBufferSink: zero capacity"};
}

void RingBufferSink::on_event(const TraceEvent& event) {
  if (events_.size() == capacity_) events_.pop_front();
  events_.push_back(event);
  ++total_;
}

}  // namespace vstream::obs
