// Fluent construction of multi-session topologies — and the session-knob
// mixin that SessionBuilder (the N=1 case) shares with it.
//
// Each builder offers only the knobs its world honours.
// `SessionConfigurator<Derived>` holds the session knobs both worlds
// honour: service, container, application, network/vantage, video,
// watch_fraction and fetch_retry. `SessionBuilder`
// (streaming/session_builder.hpp) adds the private-world knobs (capture
// length, session seed, jitter, auxiliary traffic, trace sink, per-session
// capture and impairments). `TopologyBuilder` adds the world knobs:
// population size, the `Workload` (arrival process plus per-session
// customize hook, built by `WorkloadBuilder`), the shared bottleneck and
// its faults, cross traffic, the horizon and sampling grid, and the world
// seed. Nothing is shadowed, and no builder offers a knob its `build()`
// must reject. A customize hook still receives a full `SessionConfig&`, so
// `TopologyConfig::validate()` and `run_topology` keep rejecting a
// private-path-only field set there, naming its topology replacement.
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

/// CRTP mixin: the session knobs both worlds honour, stated once.
/// `Derived` adds its own world's knobs and decides what "build" means (a
/// validated SessionConfig, or the session template of a TopologyConfig).
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
  /// Viewer abandons after this fraction of the video (beta, §6.2).
  Derived& watch_fraction(double f) {
    cfg_.watch_fraction = f;
    return self();
  }
  Derived& fetch_retry(RetryPolicy policy) {
    cfg_.fetch_retry = policy;
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
class TopologyBuilder : public SessionConfigurator<TopologyBuilder> {
 public:
  TopologyBuilder() {
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
    topo_.workload = std::move(w);
    return *this;
  }
  TopologyBuilder& bottleneck_rate_bps(double bps) {
    topo_.bottleneck.rate_bps = bps;
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
  /// World seed — every arrival and session stream forks from this.
  TopologyBuilder& seed(std::uint64_t s) {
    topo_.seed = s;
    return *this;
  }

  /// Validate and hand out the config. Throws std::invalid_argument on an
  /// impossible configuration; a session that a customize hook breaks
  /// fails `run_topology` instead, when it arrives.
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
