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
// Determinism contract: the constructor forks "session-knobs",
// "auxiliary" (only with auxiliary traffic enabled) and "rate-estimate"
// from the session stream it is given, in that order, and the instance
// keeps no stream. The rate-estimate noise is drawn then and held as a
// number for `finalize()`; nothing else draws from that fork, so its value
// is the one a draw at the end of the run would give.
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

class SessionInstance {
 public:
  /// Wire the session into `fabric`'s path. `rng` is the session's root
  /// stream, after any world-level draws (the bandwidth jitter fork); the
  /// constructor makes its three forks from it and keeps no reference.
  SessionInstance(sim::Simulator& sim, tcp::Fabric& fabric, SessionConfig config, sim::Rng& rng);
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

  /// Gather the outcome; call exactly once, after the run.
  [[nodiscard]] SessionOutcome finalize();

 private:
  void wire_combination(sim::Rng& knob_rng);
  void open_single_connection(std::uint64_t client_recv_bytes, const ServerPacing& pacing);
  [[nodiscard]] ByteSink make_sink();

  sim::Simulator& sim_;
  tcp::Fabric& fabric_;
  SessionConfig cfg_;
  double rate_estimate_noise_{1.0};  ///< lognormal factor for the Content-Length estimate

  // Deferred player wiring: clients need a sink before the player exists
  // in some flows (Netflix selects its rate first).
  Player* sink_player_{nullptr};
  std::uint64_t bytes_downloaded_{0};
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
