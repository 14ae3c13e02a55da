// One streaming session's application machinery, decoupled from world
// ownership.
//
// `SessionInstance` owns everything Table 1 wires *above* the network for
// one (service, container, application) combination: the server pacing
// discipline, the client read policy, the fetch manager, the player, and
// the optional auxiliary traffic. It deliberately owns neither the
// simulator nor the path. Both world kinds are built on one `World` shell
// (streaming/world.hpp): `run_session` hosts one instance on a private
// path with a capture recorder, while `run_topology`
// (streaming/topology.hpp) places many instances into one world, each on
// its own access leg behind a shared bottleneck.
//
// Determinism contract: the instance forks "session-knobs", "auxiliary"
// (only with auxiliary traffic enabled) and — in `finalize()` —
// "rate-estimate" from the session stream it is given, in exactly the
// order `run_session` historically drew them, so the single-session
// refactor is draw-for-draw identical to the pre-instance code.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "analysis/report.hpp"
#include "sim/rng.hpp"
#include "streaming/clients.hpp"
#include "streaming/player.hpp"
#include "streaming/session.hpp"

namespace vstream::tcp {
class Connection;
class Fabric;
}  // namespace vstream::tcp

namespace vstream::streaming {

struct ServerPacing;
class VideoStreamServer;
class GreedyClient;
class PullThrottleClient;
class FetchManager;
class IpadYouTubeClient;
class NetflixClient;
class AuxiliaryTraffic;

/// What one finished session contributes to analysis: player statistics,
/// recovery accounting, transfer totals, and the encoding-rate estimate.
/// The capture-side fields of `SessionResult` (trace, reports, metrics)
/// stay with `run_session` — a topology world samples its bottleneck
/// instead of recording packets.
struct SessionOutcome {
  PlayerStats player;
  analysis::ResilienceStats resilience;
  std::uint64_t bytes_downloaded{0};
  std::size_t connections{0};  ///< all connections on the session's fabric
  double encoding_bps_true{0.0};
  double encoding_bps_estimated{0.0};
  double interrupted_at_s{0.0};  ///< 0 when not interrupted
  double started_at_s{0.0};      ///< sim time the instance was created
  double first_byte_s{-1.0};     ///< first client read; <0 = no bytes
  double last_byte_s{-1.0};      ///< last client read

  /// Application goodput over the active transfer — the per-session G the
  /// aggregate model's variance term wants (model/aggregate.hpp). Zero
  /// when the transfer was too short to measure.
  [[nodiscard]] double goodput_bps() const {
    if (first_byte_s < 0.0 || last_byte_s <= first_byte_s) return 0.0;
    return 8.0 * static_cast<double>(bytes_downloaded) / (last_byte_s - first_byte_s);
  }
};

class SessionInstance {
 public:
  /// Wire the session into `fabric`'s path. `rng` is the session's root
  /// stream, taken by value after any world-level draws (the bandwidth
  /// jitter fork); nothing else may draw from the original afterwards.
  SessionInstance(sim::Simulator& sim, tcp::Fabric& fabric, SessionConfig config, sim::Rng rng);
  ~SessionInstance();

  SessionInstance(const SessionInstance&) = delete;
  SessionInstance& operator=(const SessionInstance&) = delete;

  /// Stop every download-side component (server pacing, client reads,
  /// fetch retries). The player's interruption handler calls this;
  /// idempotent.
  void stop_download();

  /// Stop the auxiliary-host traffic (no-op when disabled).
  void stop_auxiliary();

  /// Topology mode: notified once when the session quiesces — playback
  /// finished naturally or the viewer interrupted — so a long-lived world
  /// can retire the session. `run_session` leaves this unset; its capture
  /// cutoff ends the world instead, and wiring the finish path there would
  /// change the historical event count.
  void set_on_quiesce(std::function<void()> fn);

  /// Topology mode: observe every video byte as the client application
  /// reads it — the TCP-deduped delivery stream (retransmits and
  /// queue-dropped bytes excluded by the transport), which is what the
  /// aggregate R(t) sampler wants. Set right after construction, before
  /// the world runs. `run_session` leaves this unset.
  void set_byte_tap(std::function<void(std::uint64_t)> tap) { byte_tap_ = std::move(tap); }

  /// Nothing on the sim clock will call back into the session's
  /// application or transport machinery: every endpoint of its fabric is
  /// idle, its fetch manager has no watchdog or retry backoff pending, and
  /// its auxiliary traffic has nothing scheduled. Segments still on the
  /// links are the owner's to check. Meaningful once the session has
  /// quiesced; a live session is never drained for long.
  [[nodiscard]] bool drained() const;

  [[nodiscard]] Player& player() { return *player_; }
  [[nodiscard]] const Player& player() const { return *player_; }
  [[nodiscard]] std::uint64_t bytes_downloaded() const;

  /// Gather the outcome. Forks "rate-estimate" as the session stream's
  /// last draw; call exactly once, after the run.
  [[nodiscard]] SessionOutcome finalize();

 private:
  void wire_combination();
  void open_single_connection(std::uint64_t client_recv_bytes, const ServerPacing& pacing);
  [[nodiscard]] ByteSink make_sink();

  sim::Simulator& sim_;
  tcp::Fabric& fabric_;
  SessionConfig cfg_;
  sim::Rng rng_;

  // Deferred player wiring: clients need a sink before the player exists
  // in some flows (Netflix selects its rate first).
  Player* sink_player_{nullptr};
  double first_byte_s_{-1.0};
  double last_byte_s_{-1.0};
  double started_at_s_{0.0};
  double player_rate_bps_{0.0};

  // Owned per-combination machinery. Declaration order mirrors the old
  // run_session locals so destruction order is unchanged.
  std::unique_ptr<VideoStreamServer> server_;
  std::unique_ptr<GreedyClient> greedy_;
  std::unique_ptr<PullThrottleClient> pull_;
  std::unique_ptr<FetchManager> fetches_;
  std::unique_ptr<IpadYouTubeClient> ipad_;
  std::unique_ptr<NetflixClient> netflix_;
  std::unique_ptr<AuxiliaryTraffic> auxiliary_;
  tcp::Connection* conn_{nullptr};
  std::unique_ptr<Player> player_;

  std::function<void()> on_quiesce_;
  std::function<void(std::uint64_t)> byte_tap_;
  bool quiesced_{false};
};

}  // namespace vstream::streaming
