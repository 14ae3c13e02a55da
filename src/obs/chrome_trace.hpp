// Chrome trace-event / Perfetto exporter for the trace bus.
//
// `ChromeTraceWriter` converts typed `TraceEvent`s into trace-event JSON
// (the `{"traceEvents":[...]}` format chrome://tracing and
// https://ui.perfetto.dev load natively): span records become async
// begin/end pairs on per-subsystem tracks, cwnd and sim-loop samples become
// counter tracks, and the point probes (stalls, retries, fault edges,
// pacing blocks) become instants. Sim-time seconds map to trace
// microseconds. A zero-window episode is only known when it ends, so the
// TCP endpoint retro-emits it as a "zero_window" span.
//
// `ChromeTraceSink` plugs the writer into a `TraceBus` and writes the JSON
// file once, on close() or destruction. Wire it up with the `--trace-out`
// flag on the examples. To render only a run's tail, arm a `RingBufferSink`
// and `add()` its `events()` to a writer.
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace vstream::obs {

class ChromeTraceWriter {
 public:
  void add(const TraceEvent& event);

  /// Number of trace-event rows buffered so far (metadata excluded).
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Render the complete trace-event JSON document.
  void write(std::ostream& out) const;
  [[nodiscard]] std::string to_json() const;

 private:
  void push(const std::string& row, std::uint32_t tid);

  std::uint32_t pid_{1};
  std::vector<std::string> rows_;
  std::set<std::uint32_t> tids_;
};

/// TraceBus sink that renders everything it sees to one Chrome-trace JSON
/// file. The file is opened up front, so a bad path fails before the run,
/// and written late: on close() or destruction.
class ChromeTraceSink final : public TraceSink {
 public:
  /// Throws std::runtime_error when `path` cannot be opened for writing.
  explicit ChromeTraceSink(const std::string& path);
  ~ChromeTraceSink() override;

  void on_event(const TraceEvent& event) override { writer_.add(event); }

  /// Write the JSON file now (idempotent). Returns false on I/O failure.
  [[nodiscard]] bool close();

  [[nodiscard]] ChromeTraceWriter& writer() { return writer_; }

 private:
  std::ofstream out_;
  ChromeTraceWriter writer_;
};

}  // namespace vstream::obs
