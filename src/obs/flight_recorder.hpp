// Flight recorder: a bounded ring of recent trace events that dumps its
// tail the moment something goes wrong — a `VSTREAM_*` contract firing or a
// fetch exhausting its retry budget — so post-mortems get the last N
// episodes without paying for full-run JSONL capture.
//
// The contract trigger uses `check::set_violation_hook`, which is
// thread-local: construct the recorder on the thread that runs the world it
// observes (under runner::ParallelSweep that is the worker thread). The
// dump is JSONL — one `{"type":"flight_dump",...}` header line followed by
// the buffered events — readable by the same tooling as JsonlFileSink
// output, including `tools/trace_export`.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "check/contracts.hpp"
#include "obs/trace.hpp"

namespace vstream::obs {

class FlightRecorder final : public TraceSink {
 public:
  struct Options {
    std::size_t capacity{256};     ///< events retained; older ones fall off
    std::string dump_path;         ///< dump target; empty = stderr
    bool arm_contract_hook{true};  ///< dump when a VSTREAM_* contract fires
  };

  explicit FlightRecorder(Options options);
  ~FlightRecorder() override;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void on_event(const TraceEvent& event) override;

  /// Write the buffered tail now, headed by `reason`. Each call overwrites
  /// the previous dump file — the newest failure is the interesting one.
  void dump(const std::string& reason);

  [[nodiscard]] std::size_t dumps_written() const { return dumps_; }
  [[nodiscard]] const std::deque<TraceEvent>& buffered() const { return ring_; }

 private:
  Options options_;
  std::deque<TraceEvent> ring_;
  std::size_t dumps_{0};
  check::ViolationHook previous_hook_;
  bool hook_armed_{false};
};

}  // namespace vstream::obs
