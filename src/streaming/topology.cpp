#include "streaming/topology.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "check/contracts.hpp"
#include "net/path.hpp"
#include "net/path_builder.hpp"
#include "sim/periodic_timer.hpp"
#include "streaming/session_instance.hpp"
#include "streaming/world.hpp"
#include "tcp/connection.hpp"

namespace vstream::streaming {

void ArrivalSchedule::validate() const {
  if (start_s < 0.0) {
    throw std::invalid_argument{"ArrivalSchedule: start must be non-negative"};
  }
  switch (kind) {
    case Kind::kImmediate:
      break;
    case Kind::kPoisson:
      if (rate_per_s <= 0.0) {
        throw std::invalid_argument{"ArrivalSchedule: Poisson rate must be positive"};
      }
      break;
    case Kind::kFlashCrowd:
      if (spread_s < 0.0) {
        throw std::invalid_argument{"ArrivalSchedule: flash-crowd spread must be non-negative"};
      }
      break;
    case Kind::kDiurnal:
      if (rate_per_s <= 0.0) {
        throw std::invalid_argument{"ArrivalSchedule: diurnal base rate must be positive"};
      }
      if (period_s <= 0.0) {
        throw std::invalid_argument{"ArrivalSchedule: diurnal period must be positive"};
      }
      if (depth < 0.0 || depth > 1.0) {
        throw std::invalid_argument{"ArrivalSchedule: diurnal depth outside [0,1]"};
      }
      break;
  }
}

std::vector<double> generate_arrivals(const ArrivalSchedule& schedule, std::size_t count,
                                      double horizon_s, sim::Rng& rng) {
  schedule.validate();
  std::vector<double> arrivals;
  switch (schedule.kind) {
    case ArrivalSchedule::Kind::kImmediate: {
      if (schedule.start_s <= horizon_s) arrivals.assign(count, schedule.start_s);
      break;
    }
    case ArrivalSchedule::Kind::kPoisson: {
      double t = schedule.start_s;
      while (arrivals.size() < count) {
        t += rng.exponential(schedule.rate_per_s);
        if (t > horizon_s) break;
        arrivals.push_back(t);
      }
      break;
    }
    case ArrivalSchedule::Kind::kFlashCrowd: {
      for (std::size_t i = 0; i < count; ++i) {
        const double t = schedule.start_s + rng.uniform(0.0, schedule.spread_s);
        if (t <= horizon_s) arrivals.push_back(t);
      }
      // Uniform draws land unordered; the world needs time-sorted arrivals.
      std::sort(arrivals.begin(), arrivals.end());
      break;
    }
    case ArrivalSchedule::Kind::kDiurnal: {
      // Thinning against the peak intensity keeps the process exact while
      // every draw still comes from the one tagged stream.
      const double peak = schedule.rate_per_s * (1.0 + schedule.depth);
      double t = schedule.start_s;
      while (arrivals.size() < count) {
        t += rng.exponential(peak);
        if (t > horizon_s) break;
        const double intensity =
            schedule.rate_per_s *
            (1.0 + schedule.depth * std::sin(2.0 * std::numbers::pi * t / schedule.period_s));
        if (rng.uniform(0.0, peak) <= intensity) arrivals.push_back(t);
      }
      break;
    }
  }
  return arrivals;
}

namespace {

/// SessionConfig::validate, then reject the private-path-only knobs of a
/// session inside a topology world, naming the topology-level equivalent.
/// Run on the template and on every customized session.
void validate_topology_session(const SessionConfig& cfg) {
  cfg.validate();
  if (cfg.bandwidth_jitter > 0.0) {
    throw std::invalid_argument{
        "SessionConfig: bandwidth_jitter is the private-path stand-in for shared-link "
        "contention and cannot compose with a topology attachment — the shared bottleneck "
        "produces the contention for real; set bandwidth_jitter(0) on the session template "
        "(TopologyBuilder's default)"};
  }
  if (cfg.store_trace || cfg.keep_full_trace || cfg.streaming_report) {
    throw std::invalid_argument{
        "SessionConfig: per-session capture and report machinery is private-path only — a "
        "topology world samples its shared bottleneck instead of recording per-session "
        "packets; disable store_trace/keep_full_trace/streaming_report on the session "
        "template (TopologyBuilder's default)"};
  }
  if (cfg.trace_sink != nullptr || cfg.digest != nullptr || cfg.arena != nullptr) {
    throw std::invalid_argument{
        "SessionConfig: trace sinks, digests and arenas are per-world attachments — in a "
        "topology they belong on TopologyConfig, not on the session template"};
  }
  if (!cfg.impairments.empty()) {
    throw std::invalid_argument{
        "SessionConfig: impairment windows are absolute world times, which a session "
        "arriving mid-run cannot honour — fault the shared link via "
        "TopologyConfig::bottleneck_impairments instead"};
  }
}

/// What one session contributes to TopologyResult. Folded when the session
/// is reclaimed (or at the horizon, if it is still held then) and summed in
/// slot order at the end, so the floating-point totals are the same
/// whenever each session happened to drain.
struct SessionRecord {
  std::uint64_t bytes_downloaded{0};
  std::uint64_t wasted_bytes{0};  ///< §6.2 unused bytes; 0 unless interrupted
  double encoding_bps{0.0};
  double duration_s{0.0};
  double goodput_bps{0.0};
  std::uint32_t connections{0};
};
static_assert(sizeof(SessionRecord) <= 64, "a reclaimed session must stay a small record");

/// An admitted session's machinery: its access leg, connection fabric and
/// application objects. Held from arrival until the session has quiesced
/// and drained. Declaration order fixes destruction order: instance,
/// fabric, leg.
struct LiveSession {
  std::unique_ptr<net::Path> leg;
  std::unique_ptr<tcp::Fabric> fabric;
  std::unique_ptr<SessionInstance> instance;
  std::uint32_t client{0};
  double duration_s{0.0};
};

struct Slot {
  SessionRecord record;
  std::unique_ptr<LiveSession> live;  ///< null before arrival and once reclaimed
};

/// World-lifetime state shared by the scheduled arrival callbacks. Events
/// capture {Runner*, index} — comfortably inside the simulator's SBO
/// callback budget.
struct Runner {
  const TopologyConfig& config;
  sim::Simulator& sim;
  net::SharedBottleneck& bottleneck;
  sim::Rng& session_parent;
  std::vector<Slot>& slots;
  stats::WindowedRate& sampler;
  std::vector<std::size_t> draining{};  ///< quiesced slots, still held
  std::size_t started{0};
  std::size_t finished{0};
  std::size_t interrupted{0};
  std::size_t active{0};
  std::size_t live{0};  ///< admitted, not yet reclaimed
  std::size_t peak_live{0};

  void start_session(std::size_t k) {
    // Start events fire in slot order (arrivals are sorted, ties run FIFO),
    // so drawing here gives slot k the k-th fork of the parent: the same
    // stream it would get if every session were drawn up front. Its
    // workload draws (customize) come from its own stream, so adding a
    // session never perturbs another's draws.
    VSTREAM_INVARIANT(k == started, "session start events fired out of slot order");
    sim::Rng rng = session_parent.fork("session");
    SessionConfig cfg = config.session;
    cfg.seed = rng.seed();
    if (config.customize) config.customize(k, rng, cfg);
    validate_topology_session(cfg);

    auto session = std::make_unique<LiveSession>();
    session->duration_s = cfg.video.duration_s;
    session->leg = net::PathBuilder{sim, cfg.network, rng}.build();
    session->client = bottleneck.attach(*session->leg);
    session->fabric = std::make_unique<tcp::Fabric>(
        sim, *session->leg, net::SharedBottleneck::first_connection_id(session->client));
    session->instance =
        std::make_unique<SessionInstance>(sim, *session->fabric, std::move(cfg), std::move(rng));
    session->instance->set_on_quiesce([this, k] { retire_session(k); });
    // R(t) samples the TCP-deduped application delivery stream: the paper's
    // aggregate is useful bits, and counting at the bottleneck would tally
    // retransmitted bytes twice whenever an access leg sheds a slow-start
    // overshoot.
    session->instance->set_byte_tap([this](std::uint64_t n) {
      sampler.on_bytes(sim.now().to_seconds(), n);
    });
    slots[k].live = std::move(session);
    ++started;
    ++active;
    peak_live = std::max(peak_live, ++live);
  }

  void retire_session(std::size_t k) {
    SessionInstance& instance = *slots[k].live->instance;
    instance.stop_auxiliary();
    if (instance.player().stats().interrupted) {
      ++interrupted;
    } else {
      ++finished;
    }
    --active;
    draining.push_back(k);
  }

  /// True once no pending event can reach the session: its application
  /// and transport timers are disarmed and no segment of it is left on
  /// its leg or on the shared link.
  [[nodiscard]] bool drained(const LiveSession& session) const {
    return session.leg->down().in_flight() == 0 && session.leg->up().in_flight() == 0 &&
           bottleneck.in_flight(session.client) == 0 && session.instance->drained();
  }

  /// Free every quiesced session that has drained. Runs on the window
  /// clock, so it adds no event; it schedules and cancels none either.
  void reclaim_drained() {
    std::size_t kept = 0;
    for (const std::size_t k : draining) {
      Slot& slot = slots[k];
      if (!drained(*slot.live)) {
        draining[kept++] = k;
        continue;
      }
      finalize(slot);
      bottleneck.detach(slot.live->client);
      const std::size_t pending = sim.events_pending();
      slot.live.reset();
      VSTREAM_INVARIANT(sim.events_pending() == pending,
                        "reclaiming a drained session cancelled a pending event");
      --live;
    }
    draining.resize(kept);
  }

  /// Fold a held session's outcome into its slot's record.
  static void finalize(Slot& slot) {
    LiveSession& session = *slot.live;
    session.leg->down().audit_conservation();
    session.leg->up().audit_conservation();
    const SessionOutcome outcome = session.instance->finalize();
    slot.record = SessionRecord{
        .bytes_downloaded = outcome.bytes_downloaded,
        .wasted_bytes = outcome.player.interrupted ? outcome.player.unused_bytes() : 0,
        .encoding_bps = outcome.encoding_bps_true,
        .duration_s = session.duration_s,
        .goodput_bps = outcome.goodput_bps(),
        .connections = static_cast<std::uint32_t>(outcome.connections)};
  }
};

}  // namespace

void TopologyConfig::validate() const {
  if (sessions == 0) {
    throw std::invalid_argument{"TopologyConfig: at least one session required"};
  }
  if (horizon_s <= 0.0) {
    throw std::invalid_argument{"TopologyConfig: horizon must be positive"};
  }
  if (sample_window_s <= 0.0) {
    throw std::invalid_argument{"TopologyConfig: sample window must be positive"};
  }
  if (warmup_s < 0.0 || warmup_s >= horizon_s) {
    throw std::invalid_argument{"TopologyConfig: warmup must lie inside [0, horizon)"};
  }
  validate_topology_session(session);
  arrivals.validate();
  bottleneck.validate();
  bottleneck_impairments.validate();
}

TopologyResult run_topology(const TopologyConfig& config) {
  config.validate();

  // The shared-bottleneck world: the bottleneck, optional cross traffic
  // and one slot per arrival, built on the shared world shell.
  World world{config.seed, config.arena, config.digest, nullptr};
  sim::Simulator& sim = world.sim();
  sim::Rng& root = world.rng();

  net::SharedBottleneck bottleneck{sim, config.bottleneck, root};
  if (!config.bottleneck_impairments.empty()) {
    bottleneck.link().set_impairments(config.bottleneck_impairments);
  }

  std::unique_ptr<net::CrossTraffic> cross;
  if (config.cross_traffic.has_value()) {
    net::CrossTraffic::Config cross_cfg = *config.cross_traffic;
    cross_cfg.connection_id = net::SharedBottleneck::kForeignId;
    cross = std::make_unique<net::CrossTraffic>(sim, bottleneck.link(), cross_cfg,
                                                root.fork("cross-traffic"));
    cross->start();
  }

  world.start_monitor();

  // Arrival process, then per-session streams: every session forks off one
  // parent in arrival order, when it arrives (Runner::start_session).
  sim::Rng arrival_rng = root.fork("arrivals");
  const std::vector<double> arrivals =
      generate_arrivals(config.arrivals, config.sessions, config.horizon_s, arrival_rng);
  sim::Rng session_parent = root.fork("sessions");
  std::vector<Slot> slots(arrivals.size());

  // R(t): video bytes credited to fixed windows as the client applications
  // read them. Headers stay out (Eq. 3's E[e]E[L] is application bytes) and
  // so does auxiliary-host traffic — the same §2 filter the paper applied
  // to its captures.
  stats::WindowedRate sampler{config.sample_window_s, config.warmup_s};

  Runner runner{.config = config,
                .sim = sim,
                .bottleneck = bottleneck,
                .session_parent = session_parent,
                .slots = slots,
                .sampler = sampler};
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    Runner* r = &runner;
    sim.schedule_at(sim::SimTime::from_seconds(arrivals[k]), [r, k] { r->start_session(k); });
  }

  // Bottleneck accounting: payload that crossed the shared link, split into
  // video-session traffic (retransmissions included — this is the wire
  // view, not the R(t) basis) and foreign cross traffic.
  std::uint64_t video_payload_bytes = 0;
  std::uint64_t cross_payload_bytes = 0;
  bottleneck.set_tap(
      [&video_payload_bytes, &cross_payload_bytes, &bottleneck](
          sim::SimTime, const net::TcpSegment& seg, net::LinkEvent event) {
        if (event != net::LinkEvent::kDeliver) return;
        if (net::SharedBottleneck::client_of(seg.connection_id) >= bottleneck.legs()) {
          cross_payload_bytes += seg.payload_bytes;
          return;
        }
        if (seg.host != 0) return;
        video_payload_bytes += seg.payload_bytes;
      });

  // Window clock: closes silent R(t) windows, samples the concurrency
  // series on the same grid and reclaims the sessions that have drained.
  stats::WindowStats concurrency;
  sim::PeriodicTimer window_clock{
      sim, sim::Duration::seconds(config.sample_window_s), [&] {
        const double now_s = sim.now().to_seconds();
        sampler.advance_to(now_s);
        if (now_s > config.warmup_s) concurrency.add(static_cast<double>(runner.active));
        runner.reclaim_drained();
      }};
  window_clock.start();

  sim.run_until(sim::SimTime::from_seconds(config.horizon_s));

  window_clock.stop();
  if (cross) cross->stop();
  const WorldStats stats = world.finish();
  sampler.advance_to(config.horizon_s);

  TopologyResult result;
  result.sessions_started = runner.started;
  result.sessions_finished = runner.finished;
  result.sessions_interrupted = runner.interrupted;
  result.sessions_active_at_end = runner.active;
  result.peak_live_sessions = runner.peak_live;
  result.live_sessions_at_end = runner.live;
  for (Slot& slot : slots) {
    if (!slot.live) continue;
    slot.live->instance->stop_auxiliary();
    Runner::finalize(slot);
  }
  bottleneck.link().audit_conservation();
  for (const Slot& slot : slots) {
    const SessionRecord& record = slot.record;
    result.connections += record.connections;
    result.bytes_downloaded += record.bytes_downloaded;
    result.wasted_bytes += record.wasted_bytes;
    result.sum_encoding_bps += record.encoding_bps;
    result.sum_duration_s += record.duration_s;
    if (record.goodput_bps > 0.0) {
      result.sum_goodput_bps += record.goodput_bps;
      ++result.goodput_samples;
    }
  }

  result.video_payload_bytes = video_payload_bytes;
  result.cross_traffic_bytes = cross_payload_bytes;
  const net::Link::Counters& bn = bottleneck.link().counters();
  result.bottleneck_wire_bytes = bn.bytes_delivered;
  result.bottleneck_dropped_queue = bn.dropped_queue;
  result.bottleneck_dropped_loss = bn.dropped_loss;
  result.aggregate = sampler.windows();
  result.concurrency = concurrency;
  const double window_s = config.arrival_window_s();
  result.realized_arrival_rate_per_s =
      window_s > 0.0 ? static_cast<double>(runner.started) / window_s : 0.0;
  result.sim_events = stats.sim_events;
  result.sim_max_events_pending = stats.sim_max_events_pending;
  return result;
}

void fold_topology_outcome(check::StateDigest& digest, const TopologyResult& result) {
  digest.mix(static_cast<std::uint64_t>(result.sessions_started));
  digest.mix(static_cast<std::uint64_t>(result.sessions_finished));
  digest.mix(static_cast<std::uint64_t>(result.sessions_interrupted));
  digest.mix(static_cast<std::uint64_t>(result.sessions_active_at_end));
  digest.mix(static_cast<std::uint64_t>(result.connections));
  digest.mix(result.bytes_downloaded);
  digest.mix(result.wasted_bytes);
  digest.mix(result.video_payload_bytes);
  digest.mix(result.cross_traffic_bytes);
  digest.mix(result.bottleneck_wire_bytes);
  digest.mix(result.bottleneck_dropped_queue);
  digest.mix(result.bottleneck_dropped_loss);
  digest.mix(result.aggregate.count);
  digest.mix(result.sim_events);
}

RunFingerprint fingerprint_topology(TopologyConfig config) {
  return run_fingerprinted(config, run_topology, fold_topology_outcome).print;
}

}  // namespace vstream::streaming
