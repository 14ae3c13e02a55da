// End-to-end resilience tests: streaming sessions that hit link faults
// mid-download must recover via the fetch retry machinery instead of
// hanging, account the recovery (retries, rebuffers, fault drops) in the
// session result and reports, and stay twin-run digest-deterministic.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "analysis/report_json.hpp"
#include "net/dynamics.hpp"
#include "net/profile.hpp"
#include "streaming/scenarios.hpp"
#include "streaming/session_builder.hpp"

namespace vstream::streaming {
namespace {

using sim::Duration;
using sim::SimTime;

/// A session shaped so a mid-download blackout *must* bite: the iPad client
/// at a high encoding rate holds only ~20 s of playback in its 10 MB initial
/// buffer, and the outage outlasts it. The tight retry policy recovers the
/// in-flight fetches within the capture.
SessionConfig blackout_config(bool retry_enabled) {
  video::VideoMeta meta;
  meta.id = "resilience";
  meta.duration_s = 300.0;
  meta.encoding_bps = 4e6;
  meta.resolution = video::Resolution::k360p;
  meta.container = video::Container::kHtml5;

  RetryPolicy retry;
  retry.enabled = retry_enabled;
  retry.request_timeout = Duration::seconds(2.0);
  retry.backoff_initial = Duration::millis(250);
  retry.backoff_max = Duration::seconds(2.0);
  retry.max_retries = 12;

  net::ImpairmentSchedule impairments;
  impairments.blackout(SimTime::from_seconds(5.0), Duration::seconds(25.0));

  return SessionBuilder{}
      .service(Service::kYouTube)
      .container(video::Container::kHtml5)
      .application(Application::kIosNative)
      .vantage(net::Vantage::kHome)
      .video(meta)
      .capture_duration_s(60.0)
      .bandwidth_jitter(0.0)
      .seed(777)
      .fetch_retry(retry)
      .impairments(impairments)
      .streaming_report(true)
      .build();
}

TEST(ResilienceTest, MidDownloadBlackoutRecoversWithRetryAndRebuffer) {
  const auto result = run_session(blackout_config(/*retry_enabled=*/true));

  // The link really went down and dropped traffic on the floor.
  EXPECT_EQ(result.resilience.fault_windows, 1U);
  EXPECT_GT(result.resilience.fault_drops, 0U);

  // Application-level recovery: at least one watchdog-driven retry, and the
  // player drained its buffer, stalled, and resumed — a recorded rebuffer.
  EXPECT_GE(result.resilience.fetch_retries, 1U);
  EXPECT_GE(result.resilience.fetch_timeouts, 1U);
  EXPECT_GE(result.resilience.rebuffer_count, 1U);
  EXPECT_GT(result.resilience.longest_stall_s, 0.0);

  // The session completed instead of hanging: the download resumed after
  // the outage and playback continued past it.
  EXPECT_TRUE(result.player.started);
  EXPECT_GT(result.player.watched_s, 25.0);
  EXPECT_GT(result.bytes_downloaded, 12'000'000U);  // well past the 10 MB initial buffer

  // The streamed SessionReport carries the same resilience block.
  ASSERT_TRUE(result.report.has_value());
  EXPECT_EQ(result.report->resilience, result.resilience);
  EXPECT_NE(analysis::to_json(*result.report).find("\"resilience\""), std::string::npos);
  EXPECT_NE(result.report->render().find("rebuffer"), std::string::npos);
}

TEST(ResilienceTest, DisabledRetryLeansOnTransportOnly) {
  // Control: with the policy off, recovery is left entirely to TCP's RTO
  // backoff. The transport does eventually resume (it never gives up), but
  // the application records no recovery of its own, re-establishes no
  // connections, and ends the capture with fewer bytes than the resilient
  // twin, which replaced its stranded connections instead of waiting.
  const auto resilient = run_session(blackout_config(true));
  const auto stuck = run_session(blackout_config(false));

  EXPECT_EQ(stuck.resilience.fetch_retries, 0U);
  EXPECT_EQ(stuck.resilience.fetch_timeouts, 0U);
  EXPECT_GE(resilient.resilience.fetch_retries, 1U);
  EXPECT_GT(resilient.connections, stuck.connections);
  EXPECT_GT(resilient.bytes_downloaded, stuck.bytes_downloaded);
  // The blackout stalls the player either way; that accounting is
  // independent of the fetch machinery.
  EXPECT_GE(stuck.resilience.rebuffer_count, 1U);
}

TEST(ResilienceTest, FaultScenariosAreTwinRunDeterministic) {
  // The acceptance bar: twin runs of the fault catalog — blackout,
  // burst-loss window, rate halving, and the rest — produce identical
  // fingerprints (event-order digest + headline results + recovery stats).
  const auto scenarios = fault_scenarios(/*capture_duration_s=*/15.0);
  ASSERT_GE(scenarios.size(), 3U);
  for (const auto& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    const auto first = fingerprint_session(scenario.config);
    const auto second = fingerprint_session(scenario.config);
    EXPECT_EQ(first, second);
  }
}

TEST(ResilienceTest, BuilderValidatesUpFront) {
  const auto valid = [] {
    video::VideoMeta meta;
    meta.id = "v";
    meta.duration_s = 300.0;
    meta.encoding_bps = 1e6;
    meta.container = video::Container::kFlash;
    return SessionBuilder{}.video(meta).vantage(net::Vantage::kResearch);
  };
  EXPECT_NO_THROW(valid().build());

  // Table 1 marks Flash on native mobile apps "Not Applicable".
  EXPECT_THROW(valid().application(Application::kIosNative).build(), std::invalid_argument);
  EXPECT_THROW(valid().capture_duration_s(0.0).build(), std::invalid_argument);
  EXPECT_THROW(valid().watch_fraction(1.5).build(), std::invalid_argument);

  // Invalid retry and impairment parameters are caught at build() too.
  RetryPolicy bad_retry;
  bad_retry.backoff_max = Duration::millis(1);  // below backoff_initial
  EXPECT_THROW(valid().fetch_retry(bad_retry).build(), std::invalid_argument);

  net::ImpairmentSchedule overlapping;
  overlapping.blackout(SimTime::from_seconds(1.0), Duration::seconds(5.0))
      .blackout(SimTime::from_seconds(2.0), Duration::seconds(5.0));
  EXPECT_THROW(valid().impairments(overlapping).build(), std::invalid_argument);
}

TEST(RetryPolicyTest, BackoffDoublesFromInitialAndCapsAtMax) {
  const RetryPolicy policy;
  const Duration expected[] = {Duration::millis(500), Duration::seconds(1.0),
                               Duration::seconds(2.0), Duration::seconds(4.0),
                               Duration::seconds(8.0), Duration::seconds(8.0),
                               Duration::seconds(8.0)};
  for (std::uint32_t retry = 1; retry <= 7; ++retry) {
    EXPECT_EQ(policy.backoff_for(retry), expected[retry - 1]) << "retry " << retry;
  }
}

TEST(ResilienceTest, FaultFreeSessionsReportZeroResilience) {
  // The canonical catalog must stay clean: an unfaulted run records no
  // retries, no rebuffers, no fault drops — so the resilience block stays
  // all-zero and the batch/streamed report equivalence is untouched.
  const auto scenarios = canonical_scenarios(/*capture_duration_s=*/10.0);
  for (const auto& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    const auto result = run_session(scenario.config);
    EXPECT_FALSE(result.resilience.any());
  }
}

}  // namespace
}  // namespace vstream::streaming
