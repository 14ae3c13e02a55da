// Fluent construction of streaming sessions — the N=1 case.
//
// `SessionConfig` stays a plain aggregate (brace-init keeps working and the
// scenario catalog uses it), but sessions assembled in examples, benches,
// and sweeps read better — and fail earlier — through the builder. The
// knobs both worlds honour live in `SessionConfigurator`
// (streaming/topology_builder.hpp), shared with `TopologyBuilder`; this
// class adds the ones only a private world honours — capture length,
// session seed, bandwidth jitter, auxiliary traffic, trace sink,
// per-session capture and report, and access-link impairments — and
// decides what `build()` means: a validated private-world config.
//
//   auto result = streaming::SessionBuilder{}
//                     .service(streaming::Service::kNetflix)
//                     .container(video::Container::kSilverlight)
//                     .vantage(net::Vantage::kResidence)
//                     .video(meta)
//                     .impairments(net::ImpairmentSchedule{}.blackout(
//                         sim::SimTime::from_seconds(30.0), sim::Duration::seconds(10.0)))
//                     .run();
#pragma once

#include "streaming/topology_builder.hpp"

namespace vstream::streaming {

class SessionBuilder : public SessionConfigurator<SessionBuilder> {
 public:
  SessionBuilder() = default;
  /// Start from an existing config (e.g. a catalog scenario) and override.
  explicit SessionBuilder(SessionConfig base) : SessionConfigurator{std::move(base)} {}

  SessionBuilder& capture_duration_s(double s) {
    cfg_.capture_duration_s = s;
    return *this;
  }
  SessionBuilder& seed(std::uint64_t s) {
    cfg_.seed = s;
    return *this;
  }
  SessionBuilder& bandwidth_jitter(double j) {
    cfg_.bandwidth_jitter = j;
    return *this;
  }
  SessionBuilder& auxiliary_traffic(bool on = true) {
    cfg_.auxiliary_traffic = on;
    return *this;
  }
  SessionBuilder& trace_sink(obs::TraceSink* sink) {
    cfg_.trace_sink = sink;
    return *this;
  }
  SessionBuilder& store_trace(bool on = true) {
    cfg_.store_trace = on;
    return *this;
  }
  SessionBuilder& streaming_report(bool on = true) {
    cfg_.streaming_report = on;
    return *this;
  }
  /// Fault injection on the downstream access link (net/dynamics.hpp).
  SessionBuilder& impairments(net::ImpairmentSchedule schedule) {
    cfg_.impairments = std::move(schedule);
    return *this;
  }

  /// Validate and hand out the config. Throws std::invalid_argument on an
  /// impossible configuration (negative duration, watch fraction outside
  /// (0,1], overlapping impairment windows, a Table 1 "Not Applicable"
  /// combination).
  [[nodiscard]] SessionConfig build() const {
    cfg_.validate();
    return cfg_;
  }

  /// Validate and run in one step.
  [[nodiscard]] SessionResult run() const { return run_session(build()); }
};

}  // namespace vstream::streaming
