#include "obs/chrome_trace.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace vstream::obs {

namespace {

// One track (tid) per subsystem so Perfetto groups episodes the way the
// paper discusses them: player phases over fetch lifecycles over transport.
constexpr std::uint32_t kTidPlayer = 1;
constexpr std::uint32_t kTidFetch = 2;
constexpr std::uint32_t kTidTcp = 3;
constexpr std::uint32_t kTidLink = 4;
constexpr std::uint32_t kTidSim = 5;
constexpr std::uint32_t kTidPacing = 6;
constexpr std::uint32_t kTidOther = 7;

std::uint32_t tid_for(const std::string& category) {
  if (category == "player") return kTidPlayer;
  if (category == "fetch") return kTidFetch;
  if (category == "tcp") return kTidTcp;
  if (category == "link") return kTidLink;
  if (category == "sim") return kTidSim;
  return kTidOther;
}

const char* tid_name(std::uint32_t tid) {
  switch (tid) {
    case kTidPlayer: return "player";
    case kTidFetch: return "fetch";
    case kTidTcp: return "tcp";
    case kTidLink: return "link";
    case kTidSim: return "sim";
    case kTidPacing: return "pacing";
    default: return "analysis";
  }
}

/// Trace timestamps are sim-time microseconds with three fixed decimals, so
/// golden-file tests are byte-stable across platforms.
constexpr json::Format kMicros{3, true};
constexpr json::Format kDigits{9};

}  // namespace

void ChromeTraceWriter::push(const std::string& row, std::uint32_t tid) {
  rows_.push_back(row);
  tids_.insert(tid);
}

void ChromeTraceWriter::add(const TraceEvent& event) {
  struct Renderer {
    ChromeTraceWriter& w;

    [[nodiscard]] json::Object row(const char* ph, std::uint32_t tid) const {
      json::Object o;
      o.string("ph", ph).integer("pid", w.pid_).integer("tid", tid);
      return o;
    }
    void instant(std::uint32_t tid, const std::string& name, const std::string& args,
                 double t_s) const {
      w.push(row("i", tid)
                 .number("ts", t_s * 1e6, kMicros)
                 .string("s", "t")
                 .string("name", name)
                 .raw("args", args)
                 .close(),
             tid);
    }
    void counter(std::uint32_t tid, const std::string& name, const std::string& args,
                 double t_s) const {
      w.push(row("C", tid)
                 .number("ts", t_s * 1e6, kMicros)
                 .string("name", name)
                 .raw("args", args)
                 .close(),
             tid);
    }

    void operator()(const SpanRecord& e) const {
      const std::uint32_t tid = tid_for(e.category);
      const auto span = [&](const char* ph) {
        json::Object o = row(ph, tid);
        o.string("cat", e.category).integer("id", e.span_id).string("name", e.name);
        return o;
      };
      w.push(span("b")
                 .number("ts", e.t_begin_s * 1e6, kMicros)
                 .raw("args", json::Object{}
                                  .string("detail", e.detail)
                                  .integer("domain_id", e.id)
                                  .integer("depth", e.depth)
                                  .close())
                 .close(),
             tid);
      if (e.t_mark_s >= 0.0) {
        instant(tid, e.name + ".mark", json::Object{}.integer("span_id", e.span_id).close(),
                e.t_mark_s);
      }
      w.push(span("e").number("ts", e.t_end_s * 1e6, kMicros).close(), tid);
    }
    void operator()(const TcpCwndSample& e) const {
      counter(kTidTcp, "cwnd conn" + std::to_string(e.connection_id),
              json::Object{}
                  .integer("cwnd", e.cwnd)
                  .integer("ssthresh", e.ssthresh)
                  .integer("in_flight", e.bytes_in_flight)
                  .close(),
              e.t_s);
    }
    void operator()(const SimLoopSample& e) const {
      counter(kTidSim, "sim_loop",
              json::Object{}
                  .integer("pending", e.events_pending)
                  .number("sim_wall_ratio", e.sim_wall_ratio, kDigits)
                  .close(),
              e.t_s);
    }
    void operator()(const PacingBlockEmitted& e) const {
      instant(kTidPacing, e.initial_burst ? "initial_burst" : "pacing_block",
              json::Object{}.integer("conn", e.connection_id).integer("bytes", e.bytes).close(),
              e.t_s);
    }
    void operator()(const PlayerStall& e) const {
      instant(kTidPlayer, "stall", json::Object{}.integer("stalls", e.stall_count).close(),
              e.t_s);
    }
    void operator()(const PlayerInterrupt& e) const {
      instant(kTidPlayer, "interrupt",
              json::Object{}.number("watched_s", e.watched_s, kDigits).close(), e.t_s);
    }
    void operator()(const ZeroWindowEpisode&) const {
      // Rendered by the retro-emitted "zero_window" span instead; keeping
      // both would draw the episode twice.
    }
    void operator()(const LinkFault& e) const {
      instant(kTidLink, "fault_" + e.kind + (e.begin ? "_begin" : "_end"),
              json::Object{}.number("rate_factor", e.rate_factor, kDigits).close(), e.t_s);
    }
    void operator()(const FetchRetry& e) const {
      instant(kTidFetch, e.gave_up ? "fetch_abandoned" : "fetch_retry",
              json::Object{}
                  .integer("attempt", e.attempt)
                  .number("backoff_s", e.backoff_s, kDigits)
                  .integer("remaining_bytes", e.remaining_bytes)
                  .close(),
              e.t_s);
    }
  };
  std::visit(Renderer{*this}, event);
}

void ChromeTraceWriter::write(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const std::uint32_t tid : tids_) {
    if (!first) out << ",\n";
    first = false;
    out << json::Object{}
               .string("ph", "M")
               .integer("pid", pid_)
               .integer("tid", tid)
               .string("name", "thread_name")
               .raw("args", json::Object{}.string("name", tid_name(tid)).close())
               .close();
  }
  for (const std::string& row : rows_) {
    if (!first) out << ",\n";
    first = false;
    out << row;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

std::string ChromeTraceWriter::to_json() const {
  std::ostringstream out;
  write(out);
  return out.str();
}

ChromeTraceSink::ChromeTraceSink(const std::string& path) : out_{path} {
  if (!out_) throw std::runtime_error{"ChromeTraceSink: cannot open " + path};
}

ChromeTraceSink::~ChromeTraceSink() { static_cast<void>(close()); }

bool ChromeTraceSink::close() {
  if (out_.is_open()) {
    writer_.write(out_);
    out_.close();
  }
  return !out_.fail();
}

}  // namespace vstream::obs
