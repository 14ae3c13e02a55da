// Fluent construction of multi-session topologies — and the shared
// session-knob mixin that SessionBuilder (the N=1 case) rebases on.
//
// `SessionConfigurator<Derived>` owns the one authoritative set of
// chainable SessionConfig setters. `SessionBuilder` inherits them to
// configure a private-world run; `TopologyBuilder` inherits the same
// setters to configure the *session template* of an N-session world, then
// adds the topology-level knobs (population size, arrival process, shared
// bottleneck, sampling grid). Both funnel through the same
// `SessionConfig::validate()`; `TopologyConfig::validate()` then adds the
// one topology-only check, so a knob that is private-path-only
// (bandwidth_jitter, per-session capture, per-session impairments) fails
// `TopologyBuilder::build()` with a diagnostic explaining the
// topology-level replacement.
//
//   auto result = streaming::TopologyBuilder{}
//                     .service(streaming::Service::kYouTube)
//                     .container(video::Container::kFlash)
//                     .vantage(net::Vantage::kResidence)
//                     .video(meta)
//                     .sessions(10'000)
//                     .workload(streaming::WorkloadBuilder{}
//                                   .poisson(100.0)
//                                   .customize(vary_video)
//                                   .build())
//                     .bottleneck_rate_bps(1e9)
//                     .horizon_s(300.0)
//                     .warmup_s(60.0)
//                     .run();
#pragma once

#include "net/profile.hpp"
#include "streaming/topology.hpp"

namespace vstream::streaming {

/// CRTP mixin: every chainable SessionConfig knob, stated once. `Derived`
/// decides what "build" means (a validated SessionConfig, or the session
/// template of a TopologyConfig).
template <typename Derived>
class SessionConfigurator {
 public:
  SessionConfigurator() = default;
  explicit SessionConfigurator(SessionConfig base) : cfg_{std::move(base)} {}

  Derived& service(Service s) {
    cfg_.service = s;
    return self();
  }
  Derived& container(video::Container c) {
    cfg_.container = c;
    return self();
  }
  Derived& application(Application a) {
    cfg_.application = a;
    return self();
  }
  Derived& network(net::NetworkProfile p) {
    cfg_.network = std::move(p);
    return self();
  }
  /// Convenience: the paper's four capture vantages (Table 2).
  Derived& vantage(net::Vantage v) { return network(net::profile_for(v)); }
  Derived& video(video::VideoMeta v) {
    cfg_.video = std::move(v);
    return self();
  }
  Derived& capture_duration_s(double s) {
    cfg_.capture_duration_s = s;
    return self();
  }
  /// Viewer abandons after this fraction of the video (beta, §6.2).
  Derived& watch_fraction(double f) {
    cfg_.watch_fraction = f;
    return self();
  }
  Derived& watch_to_end() {
    cfg_.watch_fraction.reset();
    return self();
  }
  Derived& seed(std::uint64_t s) {
    cfg_.seed = s;
    return self();
  }
  Derived& server_idle_cwnd_reset(bool on = true) {
    cfg_.server_idle_cwnd_reset = on;
    return self();
  }
  Derived& bandwidth_jitter(double j) {
    cfg_.bandwidth_jitter = j;
    return self();
  }
  Derived& auxiliary_traffic(bool on = true) {
    cfg_.auxiliary_traffic = on;
    return self();
  }
  Derived& trace_sink(obs::TraceSink* sink) {
    cfg_.trace_sink = sink;
    return self();
  }
  Derived& digest(check::StateDigest* d) {
    cfg_.digest = d;
    return self();
  }
  /// Per-world allocator for the simulator's event machinery (non-owning;
  /// single-threaded — never share between concurrent sessions).
  Derived& arena(sim::ArenaResource* a) {
    cfg_.arena = a;
    return self();
  }
  Derived& keep_full_trace(bool on = true) {
    cfg_.keep_full_trace = on;
    return self();
  }
  Derived& store_trace(bool on = true) {
    cfg_.store_trace = on;
    return self();
  }
  Derived& streaming_report(bool on = true) {
    cfg_.streaming_report = on;
    return self();
  }
  /// Fault injection on the downstream access link (net/dynamics.hpp).
  Derived& impairments(net::ImpairmentSchedule schedule) {
    cfg_.impairments = std::move(schedule);
    return self();
  }
  Derived& fetch_retry(RetryPolicy policy) {
    cfg_.fetch_retry = policy;
    return self();
  }
  Derived& adaptive_bitrate(bool on = true) {
    cfg_.adaptive_bitrate = on;
    return self();
  }

 protected:
  SessionConfig cfg_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
};

/// Fluent viewer populations: an arrival process plus the per-session
/// variation hook, packaged for `TopologyBuilder::workload`.
class WorkloadBuilder {
 public:
  WorkloadBuilder& immediate(double start_s = 0.0) {
    w_.arrivals.kind = ArrivalSchedule::Kind::kImmediate;
    w_.arrivals.start_s = start_s;
    return *this;
  }
  /// Homogeneous Poisson churn — the model's lambda (Eq. 3/4).
  WorkloadBuilder& poisson(double rate_per_s, double start_s = 0.0) {
    w_.arrivals.kind = ArrivalSchedule::Kind::kPoisson;
    w_.arrivals.rate_per_s = rate_per_s;
    w_.arrivals.start_s = start_s;
    return *this;
  }
  /// Every viewer lands uniformly inside [start_s, start_s + spread_s).
  WorkloadBuilder& flash_crowd(double spread_s, double start_s = 0.0) {
    w_.arrivals.kind = ArrivalSchedule::Kind::kFlashCrowd;
    w_.arrivals.spread_s = spread_s;
    w_.arrivals.start_s = start_s;
    return *this;
  }
  /// Poisson with sinusoidal intensity: rate*(1 ± depth) over period_s.
  WorkloadBuilder& diurnal(double rate_per_s, double period_s, double depth = 0.5) {
    w_.arrivals.kind = ArrivalSchedule::Kind::kDiurnal;
    w_.arrivals.rate_per_s = rate_per_s;
    w_.arrivals.period_s = period_s;
    w_.arrivals.depth = depth;
    return *this;
  }
  WorkloadBuilder& arrivals(ArrivalSchedule schedule) {
    w_.arrivals = schedule;
    return *this;
  }
  /// Per-session variation (encoding rate, duration, watch fraction…),
  /// drawn only from the passed session rng.
  WorkloadBuilder& customize(std::function<void(std::size_t, sim::Rng&, SessionConfig&)> fn) {
    w_.customize = std::move(fn);
    return *this;
  }

  [[nodiscard]] Workload build() const {
    w_.arrivals.validate();
    return w_;
  }

 private:
  Workload w_;
};

/// Fluent construction of an N-session shared-bottleneck world. The mixin's
/// setters shape the session *template*; the methods here shape the world.
/// `seed`/`digest`/`arena` are shadowed deliberately: in a topology those
/// are world-level attachments (TopologyConfig), and leaving them on the
/// session template is exactly what `TopologyConfig::validate()` rejects.
class TopologyBuilder : public SessionConfigurator<TopologyBuilder> {
 public:
  TopologyBuilder() : TopologyBuilder{SessionConfig{}} {}
  /// Start from an existing session template (e.g. a catalog scenario).
  explicit TopologyBuilder(SessionConfig base) : SessionConfigurator{std::move(base)} {
    // Topology-mode defaults: the shared link produces contention for real
    // (no jitter stand-in), and per-session capture/auxiliary machinery
    // stays off — an N=10k world samples its bottleneck instead.
    cfg_.bandwidth_jitter = 0.0;
    cfg_.auxiliary_traffic = false;
    cfg_.store_trace = false;
  }

  TopologyBuilder& sessions(std::size_t n) {
    topo_.sessions = n;
    return *this;
  }
  TopologyBuilder& workload(Workload w) {
    topo_.arrivals = w.arrivals;
    topo_.customize = std::move(w.customize);
    return *this;
  }
  TopologyBuilder& arrivals(ArrivalSchedule schedule) {
    topo_.arrivals = schedule;
    return *this;
  }
  TopologyBuilder& customize(std::function<void(std::size_t, sim::Rng&, SessionConfig&)> fn) {
    topo_.customize = std::move(fn);
    return *this;
  }
  TopologyBuilder& bottleneck(net::SharedBottleneck::Config c) {
    topo_.bottleneck = c;
    return *this;
  }
  TopologyBuilder& bottleneck_rate_bps(double bps) {
    topo_.bottleneck.rate_bps = bps;
    return *this;
  }
  TopologyBuilder& bottleneck_queue_bytes(std::uint64_t bytes) {
    topo_.bottleneck.queue_limit_bytes = bytes;
    return *this;
  }
  TopologyBuilder& bottleneck_loss(double rate, double burst_len = 1.0) {
    topo_.bottleneck.loss_rate = rate;
    topo_.bottleneck.loss_burst_len = burst_len;
    return *this;
  }
  /// Fault injection on the shared link (absolute world times) — the
  /// topology replacement for per-session `impairments`.
  TopologyBuilder& bottleneck_impairments(net::ImpairmentSchedule schedule) {
    topo_.bottleneck_impairments = std::move(schedule);
    return *this;
  }
  /// Competing non-video load injected straight into the bottleneck queue.
  TopologyBuilder& cross_traffic(net::CrossTraffic::Config c) {
    topo_.cross_traffic = c;
    return *this;
  }
  TopologyBuilder& horizon_s(double s) {
    topo_.horizon_s = s;
    return *this;
  }
  TopologyBuilder& sample_window_s(double s) {
    topo_.sample_window_s = s;
    return *this;
  }
  TopologyBuilder& warmup_s(double s) {
    topo_.warmup_s = s;
    return *this;
  }
  /// World seed — every arrival and session stream forks from this
  /// (shadows the mixin's per-session seed, which a topology overwrites).
  TopologyBuilder& seed(std::uint64_t s) {
    topo_.seed = s;
    return *this;
  }
  /// World digest (shadows the mixin's per-session digest).
  TopologyBuilder& digest(check::StateDigest* d) {
    topo_.digest = d;
    return *this;
  }
  /// World arena (shadows the mixin's per-session arena).
  TopologyBuilder& arena(sim::ArenaResource* a) {
    topo_.arena = a;
    return *this;
  }

  /// Validate and hand out the config. Throws std::invalid_argument on an
  /// impossible configuration — including private-path-only session knobs
  /// left on the template.
  [[nodiscard]] TopologyConfig build() const {
    TopologyConfig out = topo_;
    out.session = cfg_;
    out.validate();
    return out;
  }

  /// Validate and run in one step.
  [[nodiscard]] TopologyResult run() const { return run_topology(build()); }

 private:
  TopologyConfig topo_;
};

}  // namespace vstream::streaming
