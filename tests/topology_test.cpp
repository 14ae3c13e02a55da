// Tests for the multi-session topology subsystem: builder validation
// diagnostics, deterministic arrival processes, shared-bottleneck
// contention and routing, twin-run fingerprints (serial and sharded across
// workers), bounded-memory worlds that reclaim drained viewers, and the
// §6.1 empirical-vs-analytical agreement that the aggregate model rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/contracts.hpp"
#include "net/bottleneck.hpp"
#include "net/path.hpp"
#include "runner/parallel_sweep.hpp"
#include "runner/topology_sweep.hpp"
#include "streaming/session_builder.hpp"
#include "streaming/topology.hpp"
#include "streaming/topology_builder.hpp"

namespace vstream::streaming {
namespace {

video::VideoMeta test_video(double duration_s = 20.0, double encoding_bps = 300e3) {
  video::VideoMeta meta;
  meta.id = "topology-test";
  meta.duration_s = duration_s;
  meta.encoding_bps = encoding_bps;
  meta.container = video::Container::kFlashHd;
  return meta;
}

/// A small, fast shared-bottleneck world: bulk HD Flash sessions on
/// research-grade access legs.
TopologyBuilder small_world() {
  TopologyBuilder b;
  b.container(video::Container::kFlashHd)
      .application(Application::kFirefox)
      .vantage(net::Vantage::kResearch)
      .video(test_video())
      .sessions(4)
      .horizon_s(30.0)
      .sample_window_s(0.5)
      .seed(42);
  return b;
}

// ---------------------------------------------------------------- validation

/// The same world with `fn` as every session's customize hook.
TopologyBuilder customized_world(std::function<void(std::size_t, sim::Rng&, SessionConfig&)> fn) {
  auto b = small_world();
  b.workload(WorkloadBuilder{}.customize(std::move(fn)).build());
  return b;
}

/// The diagnostic that `run` throws, or "" when it does not throw
/// std::invalid_argument.
template <typename Fn>
std::string invalid_argument_from(Fn run) {
  try {
    run();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// A requires-expression reads false for a missing member only inside a
// template, hence the generic lambda.
#define OFFERS(Builder, call) \
  ([]<typename B>(B*) { return requires(B& b) { b.call; }; }(static_cast<Builder*>(nullptr)))

// Each builder offers only the knobs its world honours. The SessionBuilder
// lines show the probe can say yes.
static_assert(OFFERS(SessionBuilder, store_trace(true)));
static_assert(OFFERS(SessionBuilder, impairments(net::ImpairmentSchedule{})));
static_assert(OFFERS(TopologyBuilder, seed(1)));
static_assert(!OFFERS(TopologyBuilder, store_trace(true)));
static_assert(!OFFERS(TopologyBuilder, trace_sink(nullptr)));
static_assert(!OFFERS(TopologyBuilder, bandwidth_jitter(0.0)));
static_assert(!OFFERS(TopologyBuilder, impairments(net::ImpairmentSchedule{})));
static_assert(!OFFERS(TopologyBuilder, capture_duration_s(1.0)));
static_assert(!OFFERS(TopologyBuilder, digest(nullptr)));
static_assert(!OFFERS(TopologyBuilder, arena(nullptr)));
static_assert(!OFFERS(TopologyBuilder, arrivals(ArrivalSchedule{})));
#undef OFFERS

// TopologyBuilder offers none of the private-path-only knobs, but the
// fields stay on SessionConfig: a customize hook and a hand-edited
// TopologyConfig::session can still set them, and both must be rejected
// with a diagnostic naming the knob and its topology replacement.

TEST(TopologyValidationTest, BandwidthJitterExcludedFromTopologies) {
  const auto jittered = [](std::size_t, sim::Rng&, SessionConfig& cfg) {
    cfg.bandwidth_jitter = 0.5;
  };
  TopologyConfig edited = small_world().build();
  edited.session.bandwidth_jitter = 0.5;
  for (const std::string& what :
       {invalid_argument_from([&] { (void)customized_world(jittered).run(); }),
        invalid_argument_from([&] { edited.validate(); })}) {
    // The diagnostic must name the knob and point at the replacement.
    EXPECT_NE(what.find("bandwidth_jitter"), std::string::npos) << what;
    EXPECT_NE(what.find("shared"), std::string::npos) << what;
  }
}

TEST(TopologyValidationTest, PerSessionImpairmentsExcludedFromTopologies) {
  const auto blackout = net::ImpairmentSchedule{}.blackout(sim::SimTime::from_seconds(5.0),
                                                           sim::Duration::seconds(1.0));
  const auto impaired = [&](std::size_t, sim::Rng&, SessionConfig& cfg) {
    cfg.impairments = blackout;
  };
  TopologyConfig edited = small_world().build();
  edited.session.impairments = blackout;
  for (const std::string& what :
       {invalid_argument_from([&] { (void)customized_world(impaired).run(); }),
        invalid_argument_from([&] { edited.validate(); })}) {
    EXPECT_NE(what.find("bottleneck_impairments"), std::string::npos) << what;
  }
}

TEST(TopologyValidationTest, PerSessionCaptureExcludedFromTopologies) {
  const auto captured = [](std::size_t, sim::Rng&, SessionConfig& cfg) { cfg.store_trace = true; };
  EXPECT_THROW((void)customized_world(captured).run(), std::invalid_argument);
  TopologyConfig edited = small_world().build();
  edited.session.store_trace = true;
  EXPECT_THROW(edited.validate(), std::invalid_argument);
}

TEST(TopologyValidationTest, SessionBuilderStillValidatesTheOldWay) {
  // The rebased SessionBuilder (N=1 case of the shared mixin) must keep
  // rejecting what it always rejected.
  EXPECT_THROW((void)SessionBuilder{}
                   .service(Service::kNetflix)
                   .container(video::Container::kFlash)  // Table 1: not applicable
                   .video(test_video())
                   .build(),
               std::invalid_argument);
  EXPECT_THROW((void)small_world().watch_fraction(1.5).build(), std::invalid_argument);
}

TEST(TopologyValidationTest, InvalidCustomizedSessionStillThrows) {
  // Sessions are drawn lazily, at arrival; a customize hook that breaks one
  // session's config must still fail the whole run, not skip the session.
  const auto broken = [](std::size_t k, sim::Rng&, SessionConfig& cfg) {
    if (k == 3) cfg.video.encoding_bps = -1.0;
  };
  EXPECT_THROW((void)small_world()
                   .sessions(6)
                   .workload(WorkloadBuilder{}.poisson(2.0).customize(broken).build())
                   .run(),
               std::invalid_argument);
  // So must one that switches on a private-path-only knob.
  const auto jittered = [](std::size_t, sim::Rng&, SessionConfig& cfg) {
    cfg.bandwidth_jitter = 0.3;
  };
  EXPECT_THROW((void)customized_world(jittered).run(), std::invalid_argument);
}

TEST(TopologyValidationTest, ArrivalScheduleRejectsBadParameters) {
  EXPECT_THROW((void)WorkloadBuilder{}.poisson(-1.0).build(), std::invalid_argument);
  EXPECT_THROW((void)WorkloadBuilder{}.diurnal(1.0, 60.0, 1.5).build(), std::invalid_argument);
  EXPECT_THROW((void)small_world().sample_window_s(0.0).build(), std::invalid_argument);
  EXPECT_THROW((void)small_world().warmup_s(60.0).build(), std::invalid_argument);  // >= horizon
}

// ------------------------------------------------------------------ arrivals

TEST(ArrivalProcessTest, ImmediateAndFlashCrowdShapes) {
  sim::Rng rng{7};
  ArrivalSchedule immediate;
  immediate.kind = ArrivalSchedule::Kind::kImmediate;
  immediate.start_s = 2.0;
  auto at = generate_arrivals(immediate, 5, 30.0, rng);
  ASSERT_EQ(at.size(), 5u);
  for (double t : at) EXPECT_DOUBLE_EQ(t, 2.0);

  ArrivalSchedule crowd;
  crowd.kind = ArrivalSchedule::Kind::kFlashCrowd;
  crowd.start_s = 10.0;
  crowd.spread_s = 5.0;
  auto ct = generate_arrivals(crowd, 200, 30.0, rng);
  ASSERT_EQ(ct.size(), 200u);
  for (std::size_t i = 0; i < ct.size(); ++i) {
    EXPECT_GE(ct[i], 10.0);
    EXPECT_LT(ct[i], 15.0);
    if (i > 0) {
      EXPECT_GE(ct[i], ct[i - 1]);  // sorted for the event queue
    }
  }
}

TEST(ArrivalProcessTest, PoissonCountAndInterarrivalStatistics) {
  // lambda = 50/s over 100 s: expect ~5000 arrivals, sigma = sqrt(5000) ~ 71.
  sim::Rng rng{123};
  ArrivalSchedule poisson;
  poisson.kind = ArrivalSchedule::Kind::kPoisson;
  poisson.rate_per_s = 50.0;
  auto at = generate_arrivals(poisson, 1u << 20, 100.0, rng);
  const double n = static_cast<double>(at.size());
  EXPECT_NEAR(n, 5000.0, 5.0 * std::sqrt(5000.0));  // 5 sigma

  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = 1; i < at.size(); ++i) {
    const double gap = at[i] - at[i - 1];
    EXPECT_GE(gap, 0.0);
    sum += gap;
    sum_sq += gap * gap;
  }
  const double mean = sum / (n - 1.0);
  const double var = sum_sq / (n - 1.0) - mean * mean;
  // Exponential(lambda): mean 1/50 = 0.02, variance 1/2500 = 4e-4.
  EXPECT_NEAR(mean, 0.02, 0.002);
  EXPECT_NEAR(var, 4.0e-4, 8.0e-5);
}

TEST(ArrivalProcessTest, DiurnalThinningPreservesMeanRate) {
  // Over whole periods the sinusoid integrates out: count ~ rate * horizon.
  sim::Rng rng{9};
  ArrivalSchedule diurnal;
  diurnal.kind = ArrivalSchedule::Kind::kDiurnal;
  diurnal.rate_per_s = 20.0;
  diurnal.period_s = 50.0;
  diurnal.depth = 0.8;
  auto at = generate_arrivals(diurnal, 1u << 20, 200.0, rng);
  EXPECT_NEAR(static_cast<double>(at.size()), 4000.0, 5.0 * std::sqrt(4000.0));
  EXPECT_TRUE(std::is_sorted(at.begin(), at.end()));
}

TEST(ArrivalProcessTest, DeterministicGivenSeed) {
  ArrivalSchedule poisson;
  poisson.kind = ArrivalSchedule::Kind::kPoisson;
  poisson.rate_per_s = 10.0;
  sim::Rng a{77}, b{77}, c{78};
  EXPECT_EQ(generate_arrivals(poisson, 100, 50.0, a), generate_arrivals(poisson, 100, 50.0, b));
  EXPECT_NE(generate_arrivals(poisson, 100, 50.0, c).front(),
            generate_arrivals(poisson, 100, 50.0, a).front());
}

// ---------------------------------------------------------------- contention

TEST(TopologyRunTest, SessionsCompleteAndDeliverPayload) {
  const TopologyResult r = small_world().run();
  EXPECT_EQ(r.sessions_started, 4u);
  EXPECT_EQ(r.sessions_finished + r.sessions_interrupted + r.sessions_active_at_end, 4u);
  EXPECT_GT(r.video_payload_bytes, 0u);
  EXPECT_GT(r.bytes_downloaded, 0u);
  EXPECT_GT(r.aggregate.count, 0u);
  EXPECT_GT(r.connections, 0u);
  // Bulk downloads through an unconstrained bottleneck finish well before
  // the 30 s horizon: 20 s of 300 kbps video on research access legs.
  EXPECT_EQ(r.sessions_active_at_end, 0u);
}

TEST(TopologyRunTest, SharedBottleneckCreatesContention) {
  // Solo world: one session owns the bottleneck.
  auto solo = small_world().sessions(1).bottleneck_rate_bps(2e6).run();
  ASSERT_EQ(solo.goodput_samples, 1u);
  const double solo_goodput = solo.mean_goodput_bps();

  // Eight sessions arriving together behind the same 2 Mbps bottleneck
  // must each see materially less than the solo goodput.
  auto crowded = small_world().sessions(8).bottleneck_rate_bps(2e6).run();
  ASSERT_GT(crowded.goodput_samples, 0u);
  EXPECT_LT(crowded.mean_goodput_bps(), 0.6 * solo_goodput);
  // And the contention is real queueing, not wire loss.
  EXPECT_EQ(crowded.bottleneck_dropped_loss, 0u);
}

TEST(TopologyRunTest, CrossTrafficStealsBottleneckCapacity) {
  net::CrossTraffic::Config cross;
  cross.mean_rate_bps = 1.5e6;
  auto with_cross = small_world().sessions(4).bottleneck_rate_bps(2e6).cross_traffic(cross).run();
  auto without = small_world().sessions(4).bottleneck_rate_bps(2e6).run();
  EXPECT_GT(with_cross.cross_traffic_bytes, 0u);
  EXPECT_EQ(without.cross_traffic_bytes, 0u);
  EXPECT_LT(with_cross.mean_goodput_bps(), without.mean_goodput_bps());
}

TEST(TopologyRunTest, InterruptionWasteIsCounted) {
  // Viewers abandoning at 30% with bulk downloads leave unused bytes (§6.2).
  auto r = small_world().sessions(4).watch_fraction(0.3).run();
  EXPECT_EQ(r.sessions_interrupted, 4u);
  EXPECT_GT(r.wasted_bytes, 0u);
  EXPECT_LE(r.wasted_bytes, r.bytes_downloaded);
}

TEST(TopologyRunTest, ArrivalRateIsMeasuredOverTheArrivalWindow) {
  // Arrivals that start halfway through the world: lambda-hat must divide
  // by the window they arrive in, not by the whole horizon.
  constexpr double kRate = 8.0;
  constexpr double kHorizon = 60.0;
  const auto make = [](std::size_t g) {
    return small_world()
        .sessions(10'000)
        .video(test_video(2.0, 100e3))
        .horizon_s(kHorizon)
        .workload(WorkloadBuilder{}.poisson(kRate, kHorizon / 2.0).build())
        .bottleneck_rate_bps(400e6)
        .seed(700 + g)
        .build();
  };
  const TopologyConfig config = make(0);
  EXPECT_DOUBLE_EQ(config.arrival_window_s(), kHorizon / 2.0);
  const TopologyResult r = run_topology(config);
  EXPECT_GT(r.sessions_started, 150u);  // ~240 expected
  EXPECT_NEAR(r.realized_arrival_rate_per_s(), kRate, 0.1 * kRate);

  // The sweep accumulator pools the same basis across worlds.
  const auto sweep = runner::run_topologies_streamed(runner::ParallelSweep{2}, 0, 4, make);
  EXPECT_DOUBLE_EQ(sweep.arrival_window_s, 4 * kHorizon / 2.0);
  EXPECT_NEAR(sweep.realized_arrival_rate_per_s(), kRate, 0.1 * kRate);
}

// ------------------------------------------------------- bottleneck routing

net::TcpSegment segment_for(std::uint32_t client) {
  net::TcpSegment s;
  s.connection_id = net::SharedBottleneck::first_connection_id(client);
  s.payload_bytes = 1000;
  s.flags = net::TcpFlag::kAck;
  return s;
}

net::NetworkProfile lossless_leg() {
  net::NetworkProfile p = net::profile_for(net::Vantage::kResearch);
  p.loss_rate = 0.0;
  return p;
}

TEST(SharedBottleneckTest, CountsEachClientsSegmentsUntilDelivered) {
  sim::Simulator sim;
  sim::Rng rng{9};
  net::SharedBottleneck bottleneck{sim, net::SharedBottleneck::Config{}, rng};
  net::Path a{sim, lossless_leg(), rng};
  net::Path b{sim, lossless_leg(), rng};
  int delivered_a = 0;
  int delivered_b = 0;
  a.down().set_receiver([&](const net::TcpSegment&) { ++delivered_a; });
  b.down().set_receiver([&](const net::TcpSegment&) { ++delivered_b; });
  const std::uint32_t ca = bottleneck.attach(a);
  const std::uint32_t cb = bottleneck.attach(b);
  std::size_t observed = 0;
  bottleneck.set_tap([&](sim::SimTime, const net::TcpSegment&, net::LinkEvent event) {
    if (event == net::LinkEvent::kDeliver) ++observed;
  });

  ASSERT_TRUE(bottleneck.link().send(segment_for(ca)));
  ASSERT_TRUE(bottleneck.link().send(segment_for(ca)));
  ASSERT_TRUE(bottleneck.link().send(segment_for(cb)));
  net::TcpSegment foreign = segment_for(0);
  foreign.connection_id = net::SharedBottleneck::kForeignId;
  ASSERT_TRUE(bottleneck.link().send(foreign));
  EXPECT_EQ(bottleneck.in_flight(ca), 2u);
  EXPECT_EQ(bottleneck.in_flight(cb), 1u);

  sim.run();
  EXPECT_EQ(bottleneck.in_flight(ca), 0u);
  EXPECT_EQ(bottleneck.in_flight(cb), 0u);
  EXPECT_EQ(delivered_a, 2);
  EXPECT_EQ(delivered_b, 1);
  EXPECT_EQ(observed, 4u);  // the observer tap sees foreign traffic too
  bottleneck.link().audit_conservation();

  // A drained client can be detached; its index stays taken and the other
  // client keeps its route.
  bottleneck.detach(ca);
  EXPECT_EQ(bottleneck.legs(), 2u);
  ASSERT_TRUE(bottleneck.link().send(segment_for(cb)));
  sim.run();
  EXPECT_EQ(delivered_b, 2);
}

#if VSTREAM_CHECK_LEVEL >= 1
TEST(SharedBottleneckTest, DeliveryToDetachedClientFailsLoudly) {
  sim::Simulator sim;
  sim::Rng rng{10};
  net::SharedBottleneck bottleneck{sim, net::SharedBottleneck::Config{}, rng};
  auto leg = std::make_unique<net::Path>(sim, lossless_leg(), rng);
  leg->down().set_receiver([](const net::TcpSegment&) {});
  const std::uint32_t client = bottleneck.attach(*leg);
  ASSERT_TRUE(bottleneck.link().send(segment_for(client)));
  // Detaching with a segment still on the shared link is the owner's bug:
  // the stale route must fail as a contract, not dereference a dead leg.
  bottleneck.detach(client);
  leg.reset();
  EXPECT_THROW(sim.run(), check::ContractViolation);
  // Detaching twice (or an index never attached) is rejected up front.
  EXPECT_THROW(bottleneck.detach(client), check::ContractViolation);
  EXPECT_THROW(bottleneck.detach(7), check::ContractViolation);
}
#endif

// ------------------------------------------------------------ bounded worlds

/// Churn of short bulk sessions: ~6 arrivals/s, each viewer watching 3-5 s,
/// so about 30 are live at once however long the world runs.
TopologyConfig churn_world(bool diurnal, double horizon_s) {
  WorkloadBuilder workload;
  if (diurnal) {
    workload.diurnal(6.0, /*period_s=*/30.0);
  } else {
    workload.poisson(6.0);
  }
  return small_world()
      .sessions(10'000)
      .video(test_video(4.0, 200e3))
      .horizon_s(horizon_s)
      .sample_window_s(0.25)
      .workload(workload
                    .customize([](std::size_t, sim::Rng& rng, SessionConfig& cfg) {
                      cfg.video.duration_s = rng.uniform(3.0, 5.0);
                    })
                    .build())
      .bottleneck_rate_bps(100e6)
      .build();
}

TEST(TopologyBoundedMemoryTest, LiveSessionsFollowConcurrencyNotArrivals) {
  for (const bool diurnal : {false, true}) {
    SCOPED_TRACE(diurnal ? "diurnal" : "poisson");
    const TopologyResult shorter = run_topology(churn_world(diurnal, 30.0));
    const TopologyResult longer = run_topology(churn_world(diurnal, 120.0));
    const double growth = static_cast<double>(longer.sessions_started) /
                          static_cast<double>(shorter.sessions_started);
    EXPECT_NEAR(growth, 4.0, 0.6);
    EXPECT_LE(static_cast<double>(longer.peak_live_sessions),
              1.5 * static_cast<double>(shorter.peak_live_sessions));
    for (const TopologyResult* r : {&shorter, &longer}) {
      // Held sessions are the concurrent ones plus those that quiesced
      // within the last window and have not been checked yet.
      EXPECT_GE(static_cast<double>(r->peak_live_sessions), r->concurrency.peak);
      EXPECT_LE(static_cast<double>(r->peak_live_sessions), r->concurrency.peak + 4.0);
      // Bulk viewers who watched to the end all drained: the only sessions
      // held at the horizon are the ones still playing.
      EXPECT_EQ(r->live_sessions_at_end, r->sessions_active_at_end);
    }
  }
}

/// Netflix viewers: fetch-based sessions (a fresh TCP connection per
/// fragment, watchdogs and retry backoffs) behind a lossy shared link.
TopologyBuilder netflix_world() {
  video::VideoMeta meta;
  meta.id = "topology-netflix";
  meta.duration_s = 60.0;
  meta.encoding_bps = 3.6e6;  // top of the ladder the client selects
  meta.container = video::Container::kSilverlight;
  TopologyBuilder b;
  b.service(Service::kNetflix)
      .container(video::Container::kSilverlight)
      .application(Application::kFirefox)
      .vantage(net::Vantage::kResidence)
      .video(meta)
      .sessions(16)
      .workload(WorkloadBuilder{}.poisson(0.25).build())
      .bottleneck_rate_bps(100e6)
      .bottleneck_loss(0.01, 2.0)
      .horizon_s(200.0)
      .sample_window_s(0.5)
      .seed(77);
  return b;
}

TEST(TopologyBoundedMemoryTest, AbandonedFetchSessionsReclaimWithoutMovingTheWorld) {
  // Viewers abandon at 80% while fragments are still arriving — segments
  // on the wire, and a 9 s blackout of the shared link has fetch
  // watchdogs time out and retry backoffs pending. Reclaiming the drained
  // sessions must not move a single event: twin runs fingerprint equal.
  const TopologyConfig config =
      netflix_world()
          .watch_fraction(0.8)
          .bottleneck_impairments(net::ImpairmentSchedule{}.blackout(
              sim::SimTime::from_seconds(30.0), sim::Duration::seconds(9.0)))
          .build();
  EXPECT_EQ(fingerprint_topology(config), fingerprint_topology(config));
  const TopologyResult r = run_topology(config);
  EXPECT_EQ(r.sessions_interrupted, r.sessions_started);
  EXPECT_GT(r.wasted_bytes, 0u);
  EXPECT_GT(r.bottleneck_dropped_loss, 0u);
  EXPECT_EQ(r.sessions_active_at_end, 0u);
  // A viewer who left mid-fragment (or whose timed-out connection was
  // abandoned) stops reading; the server then probes the shut window
  // forever, so that session never drains and stays held. The others
  // drained and were reclaimed.
  EXPECT_GT(r.live_sessions_at_end, 0u);
  EXPECT_LT(r.live_sessions_at_end, r.sessions_started);
}

TEST(TopologyBoundedMemoryTest, EverySessionThatDrainsIsReclaimed) {
  // The same lossy Netflix world with every viewer watching to the end and
  // no request ever abandoned (a timed-out connection is left open and can
  // stall on a shut window, like an abandoned viewer's): every fetch
  // completes, so every session drains, and by the horizon every one has
  // been reclaimed.
  RetryPolicy no_retries;
  no_retries.enabled = false;
  const TopologyConfig config = netflix_world().fetch_retry(no_retries).build();
  const TopologyResult r = run_topology(config);
  EXPECT_EQ(r.sessions_finished, r.sessions_started);
  EXPECT_GT(r.bottleneck_dropped_loss, 0u);
  EXPECT_EQ(r.live_sessions_at_end, 0u);
  EXPECT_LT(r.peak_live_sessions, r.sessions_started);
  EXPECT_EQ(fingerprint_topology(config), fingerprint_topology(config));
}

// --------------------------------------------------------------- determinism

TEST(TopologyDeterminismTest, TwinRunsFingerprintIdentically) {
  auto config = small_world()
                    .sessions(6)
                    .workload(WorkloadBuilder{}.poisson(1.0).build())
                    .bottleneck_rate_bps(10e6)
                    .build();
  const RunFingerprint a = fingerprint_topology(config);
  const RunFingerprint b = fingerprint_topology(config);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.sim_events, 0u);
  EXPECT_GT(a.bytes_downloaded, 0u);

  auto reseeded = small_world()
                      .sessions(6)
                      .workload(WorkloadBuilder{}.poisson(1.0).build())
                      .bottleneck_rate_bps(10e6)
                      .seed(43)
                      .build();
  EXPECT_NE(fingerprint_topology(reseeded).digest, a.digest);
}

/// The integer fields of two topology results agree: counts add and
/// maxima pool exactly, however the worlds are split or merged.
void expect_equal_counts(const TopologyResult& got, const TopologyResult& want) {
  EXPECT_EQ(got.sessions_started, want.sessions_started);
  EXPECT_EQ(got.sessions_finished, want.sessions_finished);
  EXPECT_EQ(got.sessions_interrupted, want.sessions_interrupted);
  EXPECT_EQ(got.sessions_active_at_end, want.sessions_active_at_end);
  EXPECT_EQ(got.live_sessions_at_end, want.live_sessions_at_end);
  EXPECT_EQ(got.connections, want.connections);
  EXPECT_EQ(got.bytes_downloaded, want.bytes_downloaded);
  EXPECT_EQ(got.wasted_bytes, want.wasted_bytes);
  EXPECT_EQ(got.video_payload_bytes, want.video_payload_bytes);
  EXPECT_EQ(got.cross_traffic_bytes, want.cross_traffic_bytes);
  EXPECT_EQ(got.bottleneck_wire_bytes, want.bottleneck_wire_bytes);
  EXPECT_EQ(got.bottleneck_dropped_queue, want.bottleneck_dropped_queue);
  EXPECT_EQ(got.bottleneck_dropped_loss, want.bottleneck_dropped_loss);
  EXPECT_EQ(got.aggregate.count, want.aggregate.count);
  EXPECT_EQ(got.concurrency.count, want.concurrency.count);
  EXPECT_EQ(got.goodput_samples, want.goodput_samples);
  EXPECT_EQ(got.sim_events, want.sim_events);
  EXPECT_EQ(got.peak_live_sessions, want.peak_live_sessions);
  EXPECT_EQ(got.sim_max_events_pending, want.sim_max_events_pending);
}

TEST(TopologyDeterminismTest, SweepDigestInvariantAcrossWorkerCounts) {
  // ~1k sessions across 16 worlds: the sweep digest must be bit-identical
  // whether the worlds run serially or on a pool of workers.
  const auto make = [](std::size_t g) {
    return small_world()
        .sessions(64)
        .video(test_video(4.0, 200e3))
        .horizon_s(20.0)
        .workload(WorkloadBuilder{}.poisson(8.0).build())
        .bottleneck_rate_bps(400e6)
        .seed(1000 + g)
        .build();
  };
  const runner::ParallelSweep serial{1};
  const runner::ParallelSweep pooled{4};
  const auto a = runner::run_topologies_streamed(serial, 0, 16, make);
  const auto b = runner::run_topologies_streamed(pooled, 0, 16, make);
  EXPECT_EQ(a.digest, b.digest);
  expect_equal_counts(b, a);
  EXPECT_GT(a.sessions_started, 900u);  // lambda*horizon = 160 expected per world

  // Contiguous sharding must merge to the same digest and integer fields,
  // whichever half is merged into the other.
  const auto first_half = runner::run_topologies_streamed(pooled, 0, 8, make);
  const auto second_half = runner::run_topologies_streamed(pooled, 8, 8, make);
  auto forward = first_half;
  forward.merge(second_half);
  auto backward = second_half;
  backward.merge(first_half);
  for (const auto* merged : {&forward, &backward}) {
    expect_equal_counts(*merged, a);
    EXPECT_EQ(merged->worlds, a.worlds);
    EXPECT_EQ(merged->digest, a.digest);
  }
}

TEST(TopologyDeterminismTest, OneWorldSweepEqualsItsWorld) {
  // A one-world sweep is that world's result: the pooled fields start from
  // zero, so every sum, maximum and window statistic carries over exactly.
  const auto make = [](std::size_t g) {
    return small_world()
        .sessions(12)
        .workload(WorkloadBuilder{}.poisson(2.0, 1.0).build())
        .bottleneck_rate_bps(10e6)
        .seed(800 + g)
        .build();
  };
  const TopologyResult world = run_topology(make(0));
  const auto sweep = runner::run_topologies_streamed(runner::ParallelSweep{1}, 0, 1, make);
  EXPECT_EQ(sweep.worlds, 1u);
  expect_equal_counts(sweep, world);
  for (const auto& [pooled, single] : {std::pair{sweep.aggregate, world.aggregate},
                                       std::pair{sweep.concurrency, world.concurrency}}) {
    EXPECT_EQ(pooled.sum, single.sum);
    EXPECT_EQ(pooled.sum_sq, single.sum_sq);
    EXPECT_EQ(pooled.peak, single.peak);
  }
  EXPECT_EQ(sweep.sum_encoding_bps, world.sum_encoding_bps);
  EXPECT_EQ(sweep.sum_duration_s, world.sum_duration_s);
  EXPECT_EQ(sweep.sum_goodput_bps, world.sum_goodput_bps);
  EXPECT_EQ(sweep.arrival_window_s, world.arrival_window_s);
  EXPECT_GT(world.realized_arrival_rate_per_s(), 0.0);
  EXPECT_EQ(sweep.realized_arrival_rate_per_s(), world.realized_arrival_rate_per_s());
}

TEST(TopologyDeterminismTest, StreamedDigestMatchesPerWorldFingerprints) {
  // The streamed topology sweep must fingerprint each world exactly the way
  // fingerprint_topology does (world digest + fold_topology_outcome) — the
  // same words and XOR combine as the session sweep, through one world fold.
  const auto make = [](std::size_t g) { return small_world().seed(300 + g).build(); };
  constexpr std::size_t kWorlds = 4;
  const auto streamed = runner::run_topologies_streamed(runner::ParallelSweep{2}, 0, kWorlds, make);

  runner::SweepDigest expected;
  for (std::size_t g = 0; g < kWorlds; ++g) {
    expected.add(g, fingerprint_topology(make(g)));
  }
  EXPECT_EQ(streamed.digest, expected);
}

// ------------------------------------------------------- model agreement §6.1

TEST(TopologyModelAgreementTest, EmpiricalMatchesClosedFormsAt10k) {
  // 10k Poisson arrivals sharded over 10 identical-in-distribution worlds
  // (~1k each at lambda = 20/s). Bulk HD Flash sessions on residence ADSL
  // legs (7.7 Mbps, so a transfer pulse lasts ~0.3 s and the 0.1 s windows
  // only mildly smooth it); e ~ U(100, 200) kbps, L ~ U(8, 16) s; the
  // bottleneck sits ~5 sigma above E[R], so the superposition is observed
  // uncongested — the regime of Eq. 3/4.
  //
  // Tolerances (documented in DESIGN.md §15): the mean check carries
  // sampling error plus horizon-edge effects (10%); the variance check
  // additionally smooths pulses over the window and inherits the
  // measured-G spread (30%).
  const auto make = [](std::size_t g) {
    return TopologyBuilder{}
        .container(video::Container::kFlashHd)
        .application(Application::kFirefox)
        .vantage(net::Vantage::kResidence)
        .video(test_video(12.0, 150e3))
        .sessions(1200)
        .workload(WorkloadBuilder{}
                      .poisson(20.0)
                      .customize([](std::size_t, sim::Rng& rng, SessionConfig& cfg) {
                        cfg.video.encoding_bps = rng.uniform(100e3, 200e3);
                        cfg.video.duration_s = rng.uniform(8.0, 16.0);
                      })
                      .build())
        .bottleneck_rate_bps(150e6)
        .horizon_s(50.0)
        .warmup_s(22.0)
        .sample_window_s(0.1)
        .seed(5000 + g)
        .build();
  };
  const runner::ParallelSweep pool{0};  // hardware concurrency
  const auto sweep = runner::run_topologies_streamed(pool, 0, 10, make);

  ASSERT_GE(sweep.sessions_started, 9000u);
  EXPECT_EQ(sweep.bottleneck_dropped_loss, 0u);

  const model::AggregateParams params = sweep.measured_model_params();
  EXPECT_NEAR(params.lambda_per_s, 20.0, 2.0);
  EXPECT_NEAR(params.mean_encoding_bps, 150e3, 7.5e3);
  EXPECT_NEAR(params.mean_duration_s, 12.0, 0.6);
  EXPECT_GT(params.mean_download_rate_bps, params.mean_encoding_bps);

  const double predicted_mean = model::mean_aggregate_rate_bps(params);
  const double predicted_var = model::variance_aggregate_rate(params);
  const double empirical_mean = sweep.mean_aggregate_bps();
  const double empirical_var = sweep.variance_aggregate();

  EXPECT_NEAR(empirical_mean, predicted_mean, 0.10 * predicted_mean);
  EXPECT_NEAR(empirical_var, predicted_var, 0.30 * predicted_var);
}

}  // namespace
}  // namespace vstream::streaming
