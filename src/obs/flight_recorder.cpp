#include "obs/flight_recorder.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace vstream::obs {

FlightRecorder::FlightRecorder(Options options) : options_{std::move(options)} {
  if (options_.capacity == 0) throw std::invalid_argument{"FlightRecorder: zero capacity"};
  if (options_.arm_contract_hook) {
    previous_hook_ = check::set_violation_hook(
        [this](const check::ContractViolation& violation) { dump(violation.what()); });
    hook_armed_ = true;
  }
}

FlightRecorder::~FlightRecorder() {
  if (hook_armed_) check::set_violation_hook(std::move(previous_hook_));
}

void FlightRecorder::on_event(const TraceEvent& event) {
  if (ring_.size() == options_.capacity) ring_.pop_front();
  ring_.push_back(event);
  if (const auto* retry = std::get_if<FetchRetry>(&event); retry != nullptr && retry->gave_up) {
    dump("fetch abandoned after attempt " + std::to_string(retry->attempt));
  }
}

void FlightRecorder::dump(const std::string& reason) {
  ++dumps_;
  const std::string header = json::Object{}
                                 .string("type", "flight_dump")
                                 .string("reason", reason)
                                 .integer("events", ring_.size())
                                 .close();

  if (options_.dump_path.empty()) {
    std::fprintf(stderr, "%s\n", header.c_str());
    for (const TraceEvent& event : ring_) {
      std::fprintf(stderr, "%s\n", to_jsonl(event).c_str());
    }
    return;
  }
  std::ofstream out{options_.dump_path};
  if (!out) return;  // dumping must never add a second failure on top
  out << header << '\n';
  for (const TraceEvent& event : ring_) out << to_jsonl(event) << '\n';
}

}  // namespace vstream::obs
