// Streaming-session orchestration: the executable form of Table 1.
//
// `run_session` builds a private-path world on the shared `World` shell
// (streaming/world.hpp): one vantage path, its TCP fabric and the
// viewer-side capture recorder. On it one `SessionInstance` wires the
// server pacing discipline and the client read policy that the paper
// observed for the requested (service, container, application)
// combination, streams one video for the capture duration (180 s in the
// paper), and the run returns the packet trace plus player/transfer
// statistics. The analysis layer then treats the trace exactly as the
// paper treated its tcpdump captures.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/report.hpp"
#include "capture/trace_view.hpp"
#include "net/dynamics.hpp"
#include "net/profile.hpp"
#include "obs/metrics.hpp"
#include "streaming/player.hpp"
#include "streaming/retry.hpp"
#include "video/metadata.hpp"

namespace vstream::check {
class StateDigest;
}

namespace vstream::sim {
class ArenaResource;
}

namespace vstream::obs {
class TraceSink;
}

namespace vstream::streaming {

enum class Service : std::uint8_t { kYouTube, kNetflix };

enum class Application : std::uint8_t {
  kInternetExplorer,
  kFirefox,
  kChrome,
  kIosNative,
  kAndroidNative,
};

[[nodiscard]] std::string to_string(Service s);
[[nodiscard]] std::string to_string(Application a);

/// True when the paper's Table 1 has an entry for this combination (e.g.
/// Flash on native mobile apps is "Not Applicable").
[[nodiscard]] bool combination_supported(Service service, video::Container container,
                                         Application application);

struct SessionConfig {
  Service service{Service::kYouTube};
  video::Container container{video::Container::kFlash};
  Application application{Application::kInternetExplorer};
  net::NetworkProfile network;
  video::VideoMeta video;
  double capture_duration_s{180.0};  ///< the paper stops capture after 180 s
  /// Viewer interruption: fraction of the video watched before abandoning
  /// (beta in Section 6.2); absent = never interrupt.
  std::optional<double> watch_fraction;
  std::uint64_t seed{1};
  /// Ablation knob for the Fig 9 discussion: make the streaming server obey
  /// RFC 5681's idle congestion-window restart (real CDNs did not).
  bool server_idle_cwnd_reset{false};
  /// Cross-traffic model: the session's available bandwidth is the profile
  /// rate scaled by U[1-jitter, 1]. The paper's vantage links were shared
  /// (500 Mbps / 1 Gbps uplinks), so per-session available bandwidth varied
  /// substantially — this is what makes the bulk download rate of Fig 8
  /// uncorrelated with the encoding rate.
  double bandwidth_jitter{0.5};
  /// Generate the auxiliary traffic of a real session (related-video
  /// thumbnails, an advertisement, analytics beacons) on non-video hosts.
  /// The analysis then has to filter to the video connections, as the
  /// paper's methodology did (§2).
  bool auxiliary_traffic{true};
  /// Optional trace sink attached to the session's ObsContext for the whole
  /// run (typed probe events: cwnd samples, paced blocks, stalls, ...).
  /// Non-owning; must outlive run_session.
  obs::TraceSink* trace_sink{nullptr};
  /// Optional determinism-audit digest attached to the session's simulator:
  /// event dispatch order and TCP state snapshots fold into it, so two runs
  /// with identical config must leave identical digests. Non-owning.
  check::StateDigest* digest{nullptr};
  /// Optional per-world allocator backing the simulator's event queue, slot
  /// pool and free list (sim/arena.hpp). Sweep workers pass their own
  /// recycled arena so million-session runs never contend on the global
  /// allocator; null runs on the global allocator, bit-identically.
  /// Non-owning; must outlive run_session, and — being single-threaded —
  /// must never be shared by two concurrently running sessions.
  sim::ArenaResource* arena{nullptr};
  /// Keep the auxiliary-host traffic in `SessionResult::trace`. By default
  /// the result holds only the video-CDN packets (the paper's §2 filter,
  /// applied in place) — one owned trace instead of the seed's two.
  bool keep_full_trace{false};
  /// Store captured packets at all. With false the result's trace stays
  /// empty and memory stays constant in capture length — pair it with
  /// `streaming_report` for sweeps that only need the analysis output.
  bool store_trace{true};
  /// Run the single-pass analysis pipeline during capture and attach its
  /// `SessionReport` (field-identical to the batch `build_report` over the
  /// video trace) to the result.
  bool streaming_report{false};
  /// Fault injection: deterministic impairment windows applied to the
  /// downstream access link (rate scaling, delay spikes, burst loss,
  /// blackouts / link flaps). Empty = the usual fault-free run.
  net::ImpairmentSchedule impairments;
  /// Application-level recovery for the fetch-based clients: no-progress
  /// request timeout, bounded exponential backoff, TCP re-establishment.
  RetryPolicy fetch_retry;
  /// Extension: let the Netflix client adapt its encoding rate mid-stream
  /// (per-block throughput + fault downswitch) instead of the paper's fixed
  /// selection.
  bool adaptive_bitrate{false};
  /// Reject impossible configurations up front (negative durations, watch
  /// fractions outside (0,1], invalid retry/impairment parameters, Table 1
  /// combinations the paper marks "Not Applicable"). `run_session` calls
  /// this; `SessionBuilder::build()` calls it at construction time.
  void validate() const;
};

/// What one finished session contributes to analysis, in either world
/// kind: player statistics, recovery accounting, transfer totals, and the
/// encoding-rate estimate. `SessionInstance::finalize` fills it;
/// `SessionResult` adds the private-path capture on top, while a topology
/// world samples its bottleneck instead of recording packets.
struct SessionOutcome {
  PlayerStats player;
  /// Fault/recovery accounting for the run (all-zero when fault-free):
  /// retries and timeouts from the fetch layer, rebuffers from the player,
  /// blackout drops and window counts from the impaired link. Mirror it
  /// into `analysis::ReportOptions::resilience` when batch-building a
  /// report for this session.
  analysis::ResilienceStats resilience;
  std::uint64_t bytes_downloaded{0};  ///< application bytes read by the client
  /// TCP connections to the video CDN (host 0) — the connections the
  /// paper's §2 filter keeps; auxiliary-host connections are not counted.
  std::size_t connections{0};
  double encoding_bps_true{0.0};       ///< ground truth (or selected Netflix rate)
  double encoding_bps_estimated{0.0};  ///< what the paper's pipeline would infer
  double interrupted_at_s{0.0};        ///< 0 when not interrupted
  double started_at_s{0.0};            ///< sim time the instance was created
  double first_byte_s{-1.0};           ///< first client read; <0 = no bytes
  double last_byte_s{-1.0};            ///< last client read

  /// Application goodput over the active transfer — the per-session G the
  /// aggregate model's variance term wants (model/aggregate.hpp). Zero
  /// when the transfer was too short to measure.
  [[nodiscard]] double goodput_bps() const {
    if (first_byte_s < 0.0 || last_byte_s <= first_byte_s) return 0.0;
    return 8.0 * static_cast<double>(bytes_downloaded) / (last_byte_s - first_byte_s);
  }
};

/// A private-path session: its outcome plus what the capture and the
/// world recorded.
struct SessionResult : SessionOutcome {
  /// The one owned capture of the session. By default it holds the
  /// video-CDN traffic only (the paper's §2 filter applied in place); with
  /// `SessionConfig::keep_full_trace` it holds everything the viewer-side
  /// capture saw, auxiliary hosts included, and `video_trace()` does the
  /// filtering lazily. Empty when `store_trace` is false.
  capture::PacketTrace trace;
  /// The video-CDN packets as a zero-copy view — what the analysis layer
  /// consumes. Valid only while this result (and its `trace`) is alive.
  [[nodiscard]] capture::TraceView video_trace() const {
    return capture::TraceView{trace}.host(0);
  }
  /// Single-pass analysis output, when `SessionConfig::streaming_report`
  /// was set. Present even with `store_trace == false`.
  std::optional<analysis::SessionReport> report;
  /// Snapshot of the session's metrics registry at the end of the run.
  obs::MetricsSnapshot metrics;
  std::uint64_t sim_events{0};            ///< discrete events the simulator ran
  std::size_t sim_max_events_pending{0};  ///< event-queue high-water mark
};

[[nodiscard]] SessionResult run_session(const SessionConfig& config);

}  // namespace vstream::streaming
