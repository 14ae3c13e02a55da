#include "streaming/session.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "analysis/streaming_report.hpp"
#include "capture/recorder.hpp"
#include "net/path.hpp"
#include "streaming/session_instance.hpp"
#include "streaming/world.hpp"
#include "tcp/connection.hpp"

namespace vstream::streaming {

using video::Container;

std::string to_string(Service s) {
  return s == Service::kYouTube ? "YouTube" : "Netflix";
}

std::string to_string(Application a) {
  switch (a) {
    case Application::kInternetExplorer:
      return "IE";
    case Application::kFirefox:
      return "Firefox";
    case Application::kChrome:
      return "Chrome";
    case Application::kIosNative:
      return "iOS";
    case Application::kAndroidNative:
      return "Android";
  }
  return "?";
}

bool combination_supported(Service service, Container container, Application application) {
  const bool mobile =
      application == Application::kIosNative || application == Application::kAndroidNative;
  if (service == Service::kNetflix) {
    // Netflix is Silverlight on PCs and the native app on mobiles.
    return container == Container::kSilverlight;
  }
  switch (container) {
    case Container::kFlash:
    case Container::kFlashHd:
      return !mobile;  // Table 1: "Not Applicable" for native mobile apps
    case Container::kHtml5:
      return true;
    case Container::kSilverlight:
      return false;
  }
  return false;
}

namespace {

net::NetworkProfile jittered(const SessionConfig& cfg, sim::Rng& rng) {
  auto profile = cfg.network;
  if (cfg.bandwidth_jitter > 0.0) {
    const double lo = std::clamp(1.0 - cfg.bandwidth_jitter, 0.05, 1.0);
    const double scale = rng.fork("bandwidth").uniform(lo, 1.0);
    profile.down_bps *= scale;
    profile.up_bps *= scale;
  }
  return profile;
}

}  // namespace

void SessionConfig::validate() const {
  if (!combination_supported(service, container, application)) {
    throw std::invalid_argument{"SessionConfig: combination not applicable (Table 1)"};
  }
  if (video.encoding_bps <= 0.0 || video.duration_s <= 0.0) {
    throw std::invalid_argument{"SessionConfig: invalid video metadata"};
  }
  if (capture_duration_s <= 0.0) {
    throw std::invalid_argument{"SessionConfig: capture duration must be positive"};
  }
  if (watch_fraction.has_value() && (*watch_fraction <= 0.0 || *watch_fraction > 1.0)) {
    throw std::invalid_argument{"SessionConfig: watch fraction outside (0,1]"};
  }
  if (bandwidth_jitter < 0.0) {
    throw std::invalid_argument{"SessionConfig: bandwidth jitter must be non-negative"};
  }
  fetch_retry.validate();
  impairments.validate();
}

SessionResult run_session(const SessionConfig& cfg) {
  cfg.validate();

  // The private-path world: one jittered path, its TCP fabric and the
  // viewer-side recorder, built on the shared world shell.
  World world{cfg.seed, cfg.arena, cfg.digest, cfg.trace_sink};
  sim::Simulator& sim = world.sim();
  net::Path path{sim, jittered(cfg, world.rng()), world.rng()};
  path.set_impairments(cfg.impairments);
  tcp::Fabric fabric{sim, path};
  capture::TraceRecorder recorder{sim, path};
  recorder.start();

  // Capture plumbing: size the trace for the expected capture up front
  // (un-jittered profile rate as the upper bound), optionally stream every
  // video-host record through the single-pass analysis pipeline, and skip
  // storing entirely when the caller only wants the streamed report.
  recorder.set_store_packets(cfg.store_trace);
  recorder.reserve_for(cfg.capture_duration_s, cfg.network.down_bps);
  std::unique_ptr<analysis::StreamingReportBuilder> live_report;
  if (cfg.streaming_report) {
    live_report = std::make_unique<analysis::StreamingReportBuilder>();
    recorder.set_record_sink([&live = *live_report](const capture::PacketRecord& r) {
      if (r.host == 0) live.add(r);  // the §2 video-host filter, streamed
    });
  }
  world.start_monitor();

  // The instance owns the whole Table-1 application layer: server pacing,
  // client read policy, player, auxiliary traffic. It takes the session
  // stream by value after the world-level bandwidth fork, and forks
  // "session-knobs"/"auxiliary"/"rate-estimate" in the historical order.
  SessionInstance instance{sim, fabric, cfg, world.rng()};

  sim.run_until(sim::SimTime::from_seconds(cfg.capture_duration_s));

  instance.stop_auxiliary();
  path.down().audit_conservation();
  path.up().audit_conservation();
  const WorldStats stats = world.finish();

  SessionResult result;
  static_cast<SessionOutcome&>(result) = instance.finalize();

  // Assemble the capture the way the paper's pipeline would see it: the
  // trace, then the filter to the video CDN's connections (Section 2) —
  // applied in place, so the session holds one trace, not two copies.
  result.trace = recorder.take();
  result.trace.label = to_string(cfg.service) + "/" + video::to_string(cfg.container) + "/" +
                       to_string(cfg.application) + " @ " + cfg.network.name;
  result.trace.duration_s = cfg.capture_duration_s;
  if (!cfg.keep_full_trace) {
    std::erase_if(result.trace.packets,
                  [](const capture::PacketRecord& p) { return p.host != 0; });
  }
  result.trace.encoding_bps = result.encoding_bps_estimated;

  if (live_report) {
    // Mirror the metadata the batch path reads off the video trace, then
    // close out the single-pass report.
    live_report->set_label(result.trace.label);
    live_report->set_duration_s(cfg.capture_duration_s);
    live_report->set_encoding_bps(result.encoding_bps_estimated);
    live_report->set_resilience(result.resilience);
    result.report = live_report->finish();
    recorder.set_record_sink({});
  }

  result.metrics = world.metrics();
  result.sim_events = stats.sim_events;
  result.sim_max_events_pending = stats.sim_max_events_pending;
  return result;
}

}  // namespace vstream::streaming
