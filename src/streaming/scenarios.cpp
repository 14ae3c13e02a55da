#include "streaming/scenarios.hpp"

#include "check/digest.hpp"

namespace vstream::streaming {

namespace {

SessionConfig base_config(Service service, video::Container container, Application application,
                          net::Vantage vantage, double capture_duration_s) {
  SessionConfig cfg;
  cfg.service = service;
  cfg.container = container;
  cfg.application = application;
  cfg.network = net::profile_for(vantage);
  cfg.video.id = "scenario";
  cfg.video.duration_s = 300.0;
  cfg.video.encoding_bps = 1e6;
  cfg.video.resolution = video::Resolution::k360p;
  cfg.video.container = container;
  cfg.capture_duration_s = capture_duration_s;
  cfg.seed = 20110'607;  // fixed catalog seed (CoNEXT 2011 submission season)
  return cfg;
}

/// Retry policy tuned for the fault catalog: tight enough that a blackout a
/// few seconds long triggers application-level recovery inside even a short
/// test capture, with enough budget to ride out the longest window below.
RetryPolicy fault_retry_policy() {
  RetryPolicy policy;
  policy.request_timeout = sim::Duration::seconds(2.0);
  policy.backoff_initial = sim::Duration::millis(250);
  policy.backoff_max = sim::Duration::seconds(2.0);
  policy.max_retries = 12;
  return policy;
}

}  // namespace

std::vector<NamedScenario> canonical_scenarios(double capture_duration_s) {
  using video::Container;
  std::vector<NamedScenario> out;
  const auto add = [&](std::string name, SessionConfig cfg) {
    out.push_back(NamedScenario{std::move(name), std::move(cfg)});
  };

  // YouTube, every PC/mobile application the paper measured (Table 1).
  add("youtube-flash-ie-research",
      base_config(Service::kYouTube, Container::kFlash, Application::kInternetExplorer,
                  net::Vantage::kResearch, capture_duration_s));
  add("youtube-flash-firefox-residence",
      base_config(Service::kYouTube, Container::kFlash, Application::kFirefox,
                  net::Vantage::kResidence, capture_duration_s));
  add("youtube-flashhd-chrome-academic",
      base_config(Service::kYouTube, Container::kFlashHd, Application::kChrome,
                  net::Vantage::kAcademic, capture_duration_s));
  add("youtube-html5-ie-home",
      base_config(Service::kYouTube, Container::kHtml5, Application::kInternetExplorer,
                  net::Vantage::kHome, capture_duration_s));
  add("youtube-html5-firefox-research",
      base_config(Service::kYouTube, Container::kHtml5, Application::kFirefox,
                  net::Vantage::kResearch, capture_duration_s));
  add("youtube-html5-chrome-residence",
      base_config(Service::kYouTube, Container::kHtml5, Application::kChrome,
                  net::Vantage::kResidence, capture_duration_s));
  add("youtube-html5-ipad-home",
      base_config(Service::kYouTube, Container::kHtml5, Application::kIosNative,
                  net::Vantage::kHome, capture_duration_s));
  add("youtube-html5-android-residence",
      base_config(Service::kYouTube, Container::kHtml5, Application::kAndroidNative,
                  net::Vantage::kResidence, capture_duration_s));

  // Netflix: Silverlight on PCs, the native apps on mobiles.
  add("netflix-silverlight-pc-research",
      base_config(Service::kNetflix, Container::kSilverlight, Application::kInternetExplorer,
                  net::Vantage::kResearch, capture_duration_s));
  add("netflix-silverlight-ipad-home",
      base_config(Service::kNetflix, Container::kSilverlight, Application::kIosNative,
                  net::Vantage::kHome, capture_duration_s));
  add("netflix-silverlight-android-residence",
      base_config(Service::kNetflix, Container::kSilverlight, Application::kAndroidNative,
                  net::Vantage::kResidence, capture_duration_s));

  // Behavioural variants: viewer interruption (Section 6.2) and the RFC
  // 5681 idle-restart ablation (Fig 9).
  {
    auto cfg = base_config(Service::kYouTube, Container::kFlash, Application::kInternetExplorer,
                           net::Vantage::kResidence, capture_duration_s);
    cfg.watch_fraction = 0.4;
    add("youtube-flash-ie-interrupted", cfg);
  }
  {
    auto cfg = base_config(Service::kYouTube, Container::kFlash, Application::kInternetExplorer,
                           net::Vantage::kResearch, capture_duration_s);
    cfg.server_idle_cwnd_reset = true;
    add("youtube-flash-ie-idle-restart", cfg);
  }
  return out;
}

std::vector<NamedScenario> fault_scenarios(double capture_duration_s) {
  using video::Container;
  std::vector<NamedScenario> out;
  const auto at = [&](double fraction) {
    return sim::SimTime::from_seconds(capture_duration_s * fraction);
  };
  const auto lasting = [&](double fraction) {
    return sim::Duration::seconds(capture_duration_s * fraction);
  };

  // Mid-download blackout against the ranged iPad fetcher: the watchdog
  // fires, retries back off through the outage, and the player records a
  // rebuffer once bytes flow again. The early start keeps the playout
  // buffer shallow enough that the blackout actually drains it.
  {
    auto cfg = base_config(Service::kYouTube, Container::kHtml5, Application::kIosNative,
                           net::Vantage::kHome, capture_duration_s);
    cfg.fetch_retry = fault_retry_policy();
    // A higher encoding rate keeps the iPad's 10 MB initial buffer short in
    // playback seconds, so the blackout can actually drain it.
    cfg.video.encoding_bps = 4e6;
    cfg.impairments.blackout(at(0.10), lasting(0.35));
    out.push_back(NamedScenario{"fault-blackout-youtube-ipad-home", std::move(cfg)});
  }

  // Gilbert-Elliott burst-loss window layered over the Residence profile's
  // base loss, with adaptive bitrate on: the retry callback feeds the rate
  // controller, so sustained loss shows up as a downswitch, not a hang.
  {
    auto cfg = base_config(Service::kNetflix, Container::kSilverlight,
                           Application::kInternetExplorer, net::Vantage::kResidence,
                           capture_duration_s);
    cfg.fetch_retry = fault_retry_policy();
    cfg.adaptive_bitrate = true;
    cfg.impairments.burst_loss(at(0.15), lasting(0.30), /*rate=*/0.12, /*burst_len=*/5.0);
    out.push_back(NamedScenario{"fault-burstloss-netflix-pc-residence", std::move(cfg)});
  }

  // Congestion onset as a rate halving across the middle of the capture —
  // the persistent-connection Android client keeps its one connection and
  // simply slows; recovery is transport-level, resilience stats stay near
  // zero. This is the "impairment without drama" control scenario.
  {
    auto cfg = base_config(Service::kNetflix, Container::kSilverlight,
                           Application::kAndroidNative, net::Vantage::kResidence,
                           capture_duration_s);
    cfg.fetch_retry = fault_retry_policy();
    cfg.impairments.rate_scale(at(0.20), lasting(0.40), /*factor=*/0.5);
    out.push_back(NamedScenario{"fault-ratehalving-netflix-android-residence", std::move(cfg)});
  }

  // Classic link flap against the greedy Flash download: the single
  // connection rides the outages on TCP's own RTO schedule (no fetch-level
  // watchdog drama), exercising blackout transitions without FetchManager.
  {
    auto cfg = base_config(Service::kYouTube, Container::kFlash, Application::kInternetExplorer,
                           net::Vantage::kResearch, capture_duration_s);
    cfg.impairments.link_flap(at(0.20), /*down=*/lasting(0.04), /*up=*/lasting(0.08),
                              /*count=*/3);
    out.push_back(NamedScenario{"fault-linkflap-youtube-flash-research", std::move(cfg)});
  }

  // Delay spike plus a short blackout of a different kind overlapping it:
  // validates that mixed-kind overlap composes (bufferbloat during an
  // outage window edge) and stays deterministic.
  {
    auto cfg = base_config(Service::kYouTube, Container::kHtml5, Application::kChrome,
                           net::Vantage::kAcademic, capture_duration_s);
    cfg.impairments.delay_spike(at(0.25), lasting(0.25), sim::Duration::millis(150))
        .blackout(at(0.30), lasting(0.05));
    out.push_back(NamedScenario{"fault-delayspike-youtube-chrome-academic", std::move(cfg)});
  }

  return out;
}

void fold_outcome(check::StateDigest& digest, const SessionResult& result) {
  digest.mix(result.bytes_downloaded);
  digest.mix(result.sim_events);
  digest.mix(static_cast<std::uint64_t>(result.connections));
  digest.mix(result.player.downloaded_bytes);
  digest.mix(result.player.consumed_bytes);
  // Recovery dynamics are part of the outcome under fault injection: two
  // runs that downloaded the same bytes via different retry/rebuffer paths
  // must not fingerprint equal.
  digest.mix(static_cast<std::uint64_t>(result.resilience.fetch_retries));
  digest.mix(static_cast<std::uint64_t>(result.resilience.rebuffer_count));
  digest.mix(result.resilience.fault_drops);
}

RunFingerprint fingerprint_session(SessionConfig config, obs::TraceSink* sink) {
  if (sink != nullptr) config.trace_sink = sink;
  return run_fingerprinted(config, run_session, fold_outcome).print;
}

}  // namespace vstream::streaming
