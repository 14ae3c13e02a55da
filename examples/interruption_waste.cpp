// interruption_waste — how much of the downloaded video is thrown away when
// viewers lose interest, measured two ways:
//   1. the Section 6.2 closed forms (Eq 8/9), and
//   2. a packet-level shared-bottleneck topology whose viewers all abandon
//      at the watch fraction beta — the wasted bytes come straight out of
//      the world's own accounting (TopologyResult::wasted_bytes),
// swept over beta and the buffering policy. The two agree, which is the
// point: the analytical model is a faithful summary of the system
// behaviour even when the abandoning sessions share one link.
//
// Usage: interruption_waste [sessions_per_point]
//
// A count that is not a whole number of at least one exits 2 with the
// usage text.
#include <cstdio>

#include "model/interruption.hpp"
#include "net/profile.hpp"
#include "runner/cli.hpp"
#include "streaming/topology_builder.hpp"
#include "video/datasets.hpp"

namespace {

using namespace vstream;

double simulated_unused_mb(double beta, std::size_t sessions, std::uint64_t seed) {
  video::VideoMeta meta;
  meta.id = "waste";
  meta.duration_s = 600.0;
  meta.encoding_bps = 1e6;
  meta.container = video::Container::kFlash;
  // One world, every viewer abandoning at beta: the sessions contend for a
  // shared link provisioned well above the aggregate (waste physics, not
  // congestion, is under study here), and each draws its own encoding rate
  // from its private stream exactly as the old per-session loop did.
  const auto result =
      streaming::TopologyBuilder{}
          .service(streaming::Service::kYouTube)
          .container(video::Container::kFlash)
          .application(streaming::Application::kInternetExplorer)
          .vantage(net::Vantage::kResearch)
          .video(meta)
          .watch_fraction(beta)
          .sessions(sessions)
          .workload(streaming::WorkloadBuilder{}
                        .immediate()
                        .customize([](std::size_t, sim::Rng& rng, streaming::SessionConfig& cfg) {
                          cfg.video.encoding_bps = rng.uniform(0.6e6, 1.4e6);
                        })
                        .build())
          .bottleneck_rate_bps(400e6)
          .horizon_s(610.0)  // reaches the latest interruption (beta ~ 1)
          .seed(seed)
          .run();
  return static_cast<double>(result.wasted_bytes) / static_cast<double>(sessions) / 1048576.0;
}

double model_unused_mb(double beta) {
  model::InterruptionParams p;
  p.encoding_bps = 1e6;  // population mean
  p.duration_s = 600.0;
  p.buffered_playback_s = 40.0;
  p.accumulation_ratio = 1.25;
  p.beta = beta;
  return model::unused_bytes(p) / 1048576.0;
}

}  // namespace

int main(int argc, char** argv) {
  // 40 viewers per point pins the per-session encoding draws close to the
  // population mean the closed forms use — one shared world per point makes
  // that population cheap (a few seconds for the whole sweep).
  std::size_t sessions = 40;
  if (argc > 1 && !runner::parse_positive(argv[1], sessions)) {
    std::fprintf(stderr,
                 "interruption_waste: bad value '%s' for sessions_per_point\n"
                 "usage: interruption_waste [sessions_per_point]\n",
                 argv[1]);
    return 2;
  }

  std::printf("== unused bytes per session: model (Eq 8) vs packet-level simulation ==\n");
  std::printf("YouTube Flash, 600 s videos around 1 Mbps, Research network\n\n");
  std::printf("  %6s %16s %18s\n", "beta", "model [MB]", "simulated [MB]");
  for (const double beta : {0.1, 0.2, 0.4, 0.6, 0.8}) {
    std::printf("  %6.1f %16.2f %18.2f\n", beta, model_unused_mb(beta),
                simulated_unused_mb(beta, sessions, 7000));
  }

  std::printf("\n== Eq (7): which videos are fully downloaded before the viewer quits ==\n");
  std::printf("  %8s %8s %20s\n", "B' [s]", "k", "critical L [s]");
  for (const double buffered : {10.0, 40.0, 80.0}) {
    for (const double ratio : {1.05, 1.25, 1.5}) {
      const double critical = model::critical_duration_s(buffered, ratio, 0.2);
      std::printf("  %8.0f %8.2f %20.1f\n", buffered, ratio, critical);
    }
  }
  std::printf("\nreading: with the paper's Flash parameters (B'=40 s, k=1.25) any video\n"
              "shorter than 53.3 s is wholly on disk before a beta=0.2 viewer walks away.\n");

  std::printf("\n== Eq (9): aggregate wasted bandwidth vs buffering policy ==\n");
  std::printf("(lambda = 1/s, Finamore viewing pattern: 60%% of views end before 20%%)\n\n");
  std::printf("  %8s %8s %14s %10s\n", "B' [s]", "k", "wasted [Mbps]", "waste %");
  for (const double buffered : {10.0, 40.0, 80.0}) {
    for (const double ratio : {1.05, 1.25}) {
      model::WasteMonteCarloConfig cfg;
      cfg.lambda_per_s = 1.0;
      cfg.draws = 50000;
      cfg.buffered_playback_s = buffered;
      cfg.accumulation_ratio = ratio;
      cfg.draw_encoding_bps = [](sim::Rng& r) { return r.uniform(0.2e6, 1.5e6); };
      cfg.draw_duration_s = [](sim::Rng& r) {
        return std::clamp(r.lognormal(std::log(210.0), 0.8), 30.0, 3600.0);
      };
      cfg.draw_beta = [](sim::Rng& r) {
        return r.bernoulli(0.6) ? r.uniform(0.01, 0.2) : r.uniform(0.2, 0.99);
      };
      const auto est = model::estimate_wasted_bandwidth(cfg);
      std::printf("  %8.0f %8.2f %14.2f %9.1f%%\n", buffered, ratio, est.wasted_bps / 1e6,
                  est.waste_fraction * 100.0);
    }
  }
  return 0;
}
