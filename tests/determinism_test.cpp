// Tests for the determinism audit: twin same-seed runs of every canonical
// scenario must produce bit-identical state digests, and the deliberately
// nondeterministic unordered-map canary must be caught.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/bottleneck.hpp"
#include "net/path.hpp"
#include "sim/determinism_canary.hpp"
#include "streaming/scenarios.hpp"
#include "streaming/session_instance.hpp"
#include "streaming/topology_builder.hpp"
#include "tcp/connection.hpp"

namespace vstream::streaming {
namespace {

// Short capture window keeps the 2x13 runs fast; determinism does not
// depend on duration (the audit tool runs the full 180 s window in CI).
constexpr double kTestCaptureSeconds = 8.0;

TEST(ScenarioCatalogTest, CoversTableOneCombinations) {
  const auto scenarios = canonical_scenarios(kTestCaptureSeconds);
  ASSERT_GE(scenarios.size(), 13U);
  std::set<std::string> names;
  for (const auto& s : scenarios) names.insert(s.name);
  EXPECT_EQ(names.size(), scenarios.size()) << "scenario names must be unique";
  EXPECT_TRUE(names.count("youtube-flash-ie-research"));
  EXPECT_TRUE(names.count("netflix-silverlight-pc-research"));
}

TEST(DeterminismTest, TwinRunsProduceIdenticalFingerprints) {
  for (const auto& scenario : canonical_scenarios(kTestCaptureSeconds)) {
    const RunFingerprint first = fingerprint_session(scenario.config);
    const RunFingerprint second = fingerprint_session(scenario.config);
    EXPECT_EQ(first, second) << "scenario diverged: " << scenario.name;
    EXPECT_GT(first.sim_events, 0U) << scenario.name;
    EXPECT_GT(first.words_mixed, 0U) << scenario.name;
    EXPECT_GT(first.bytes_downloaded, 0U) << scenario.name;
  }
}

TEST(DeterminismTest, DistinctScenariosProduceDistinctDigests) {
  const auto scenarios = canonical_scenarios(kTestCaptureSeconds);
  const RunFingerprint* youtube = nullptr;
  const RunFingerprint* netflix = nullptr;
  RunFingerprint a;
  RunFingerprint b;
  for (const auto& s : scenarios) {
    if (s.name == "youtube-flash-ie-research") {
      a = fingerprint_session(s.config);
      youtube = &a;
    }
    if (s.name == "netflix-silverlight-pc-research") {
      b = fingerprint_session(s.config);
      netflix = &b;
    }
  }
  ASSERT_NE(youtube, nullptr);
  ASSERT_NE(netflix, nullptr);
  EXPECT_NE(youtube->digest, netflix->digest);
}

// `fold_outcome` leaves `encoding_bps_estimated` out of every digest, so a
// session stream whose "rate-estimate" fork moved would pass the audit.
// These pin the estimate itself, bit for bit, in each world kind.

const NamedScenario& scenario_named(const std::vector<NamedScenario>& all,
                                    const std::string& name) {
  for (const auto& s : all) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument{"no scenario " + name};
}

TEST(RateEstimatePinTest, CanonicalSessionWithAuxiliaryTraffic) {
  const auto all = canonical_scenarios(kTestCaptureSeconds);
  const SessionConfig& cfg = scenario_named(all, "youtube-html5-firefox-research").config;
  ASSERT_TRUE(cfg.auxiliary_traffic);
  EXPECT_EQ(run_session(cfg).encoding_bps_estimated, 0x1.9fe4d44ebb309p+19);
}

TEST(RateEstimatePinTest, NetflixSession) {
  const auto all = canonical_scenarios(kTestCaptureSeconds);
  const SessionConfig& cfg = scenario_named(all, "netflix-silverlight-pc-research").config;
  EXPECT_EQ(run_session(cfg).encoding_bps_estimated, 0x1.b774p+21);
}

TEST(RateEstimatePinTest, TopologySession) {
  // One viewer wired the way run_topology wires each arrival: the session
  // stream forks its leg's loss streams, then the instance forks its own.
  video::VideoMeta meta;
  meta.id = "rate-estimate-pin";
  meta.duration_s = 120.0;
  meta.encoding_bps = 800e3;
  meta.container = video::Container::kHtml5;
  const TopologyConfig world = TopologyBuilder{}
                                   .container(video::Container::kHtml5)
                                   .application(Application::kFirefox)
                                   .vantage(net::Vantage::kResidence)
                                   .video(meta)
                                   .seed(29)
                                   .build();
  sim::Simulator sim;
  sim::Rng root{world.seed};
  net::SharedBottleneck bottleneck{sim, world.bottleneck, root};
  sim::Rng parent = root.fork("sessions");
  sim::Rng rng = parent.fork("session");
  net::Path leg{sim, world.session.network, rng};
  const std::uint32_t client = bottleneck.attach(leg);
  tcp::Fabric fabric{sim, leg, net::SharedBottleneck::first_connection_id(client)};
  SessionInstance instance{sim, fabric, world.session, rng};
  sim.run_until(sim::SimTime::from_seconds(kTestCaptureSeconds));
  instance.stop_auxiliary();
  const SessionOutcome outcome = instance.finalize();
  EXPECT_GT(outcome.bytes_downloaded, 0U);
  EXPECT_EQ(outcome.encoding_bps_estimated, 0x1.5f1dd3eac7cd4p+19);
}

// The canary stands in for real per-process nondeterminism (hash seeding /
// ASLR leaking unordered-container order into event scheduling). The audit
// must hold its two properties: reproducible under a fixed nonce, divergent
// across nonces.
TEST(DeterminismTest, CanaryIsReproducibleUnderFixedNonce) {
  EXPECT_EQ(sim::determinism_canary_digest(1), sim::determinism_canary_digest(1));
  EXPECT_EQ(sim::determinism_canary_digest(42), sim::determinism_canary_digest(42));
}

TEST(DeterminismTest, CanaryCatchesPerturbedHashOrder) {
  // At least one of the perturbed nonces must shuffle the map's iteration
  // order enough to flip the digest (in practice they all do).
  const std::uint64_t baseline = sim::determinism_canary_digest(1);
  EXPECT_TRUE(sim::determinism_canary_digest(2) != baseline ||
              sim::determinism_canary_digest(3) != baseline)
      << "canary failed to expose hash-order-driven scheduling";
}

}  // namespace
}  // namespace vstream::streaming
