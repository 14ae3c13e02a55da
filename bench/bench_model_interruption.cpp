// Section 6.2 — User interruptions: unused bytes and wasted bandwidth.
//
// Reproduces the worked example (B'=40 s, k=1.25, beta=0.2 => L=53.3 s),
// evaluates Eq (8)/(9) across buffering amounts and accumulation ratios,
// and runs the Monte-Carlo estimator with the Finamore et al. viewing
// pattern the paper cites (60% of videos watched < 20% of their duration).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "model/interruption.hpp"
#include "support.hpp"
#include "video/viewing.hpp"

namespace {

using namespace vstream;
using model::InterruptionParams;
using model::WasteMonteCarloConfig;

WasteMonteCarloConfig finamore_config(double buffered_s, double ratio) {
  WasteMonteCarloConfig cfg;
  cfg.lambda_per_s = 1.0;
  cfg.draws = 50000;
  cfg.seed = 11;
  cfg.buffered_playback_s = buffered_s;
  cfg.accumulation_ratio = ratio;
  cfg.draw_encoding_bps = [](sim::Rng& r) { return r.uniform(0.2e6, 1.5e6); };
  cfg.draw_duration_s = [](sim::Rng& r) {
    return std::clamp(r.lognormal(std::log(210.0), 0.8), 30.0, 3600.0);
  };
  // Finamore/Huang viewing model: 60% of typical videos watched < 20%,
  // longer videos abandoned earlier.
  cfg.draw_beta = [](sim::Rng& r) {
    static const video::ViewingModel kViewing;
    return std::min(0.999, kViewing.draw_watch_fraction(r, 210.0));
  };
  return cfg;
}

void print_reproduction() {
  bench::print_header("Section 6.2 -- interruptions and wasted bandwidth",
                      "Rao et al., CoNEXT 2011, Eq (5)-(9)");

  std::printf("worked example (paper, end of 6.2):\n");
  const double critical = model::critical_duration_s(40.0, 1.25, 0.2);
  std::printf("  B'=40 s, k=1.25, beta=0.2  =>  critical duration L = %.1f s (paper: 53.3 s)\n",
              critical);
  std::printf("  videos shorter than %.1f s are fully downloaded before 20%% is watched\n\n",
              critical);

  std::printf("Eq (8): unused bytes for one 1 Mbps video, beta=0.2, k=1.25, B'=40 s:\n");
  std::printf("  %10s %14s %22s\n", "L [s]", "unused [MB]", "fully downloaded?");
  for (const double duration : {30.0, 53.3, 120.0, 300.0, 600.0, 1800.0}) {
    InterruptionParams p;
    p.encoding_bps = 1e6;
    p.duration_s = duration;
    p.buffered_playback_s = 40.0;
    p.accumulation_ratio = 1.25;
    p.beta = 0.2;
    std::printf("  %10.1f %14.2f %22s\n", duration, model::unused_bytes(p) / 1048576.0,
                model::downloads_whole_video_before_interruption(p) ? "yes" : "no");
  }

  std::printf("\nEq (9): wasted bandwidth under the Finamore viewing pattern\n");
  std::printf("(lambda = 1 session/s, YouTube-like population)\n\n");
  std::printf("  %10s %6s %16s %16s %10s\n", "B' [s]", "k", "wasted [Mbps]", "useful [Mbps]",
              "waste %");
  for (const double buffered : {5.0, 20.0, 40.0, 80.0}) {
    for (const double ratio : {1.0, 1.25, 1.5}) {
      const auto est = model::estimate_wasted_bandwidth(finamore_config(buffered, ratio));
      std::printf("  %10.0f %6.2f %16.2f %16.2f %9.1f%%\n", buffered, ratio,
                  est.wasted_bps / 1e6, est.useful_bps / 1e6, est.waste_fraction * 100.0);
    }
  }
  std::printf("\n  -> the paper's recommendation: adapt B' and k downwards to curb waste;\n"
              "     both knobs reduce wasted bandwidth monotonically in the table above.\n");

  std::printf("\ncross-check against the packet-level simulator (one session):\n");
  video::VideoMeta v;
  v.id = "waste";
  v.duration_s = 600.0;
  v.encoding_bps = 1e6;
  v.container = video::Container::kFlash;
  auto cfg = bench::make_config(streaming::Service::kYouTube, video::Container::kFlash,
                                streaming::Application::kInternetExplorer,
                                net::Vantage::kResearch, v, 13);
  cfg.watch_fraction = 0.2;
  const auto outcome = bench::run_and_analyze(cfg);
  InterruptionParams p;
  p.encoding_bps = 1e6;
  p.duration_s = 600.0;
  p.buffered_playback_s = 40.0;
  p.accumulation_ratio = 1.25;
  p.beta = 0.2;
  std::printf("  model Eq(8) unused bytes   : %.2f MB\n", model::unused_bytes(p) / 1048576.0);
  std::printf("  simulated unused bytes     : %.2f MB\n",
              outcome.result.player.unused_bytes() / 1048576.0);
}

void BM_WasteMonteCarlo(benchmark::State& state) {
  auto cfg = finamore_config(40.0, 1.25);
  cfg.draws = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto est = model::estimate_wasted_bandwidth(cfg);
    benchmark::DoNotOptimize(est.wasted_bps);
  }
  state.SetLabel(std::to_string(state.range(0)) + " draws");
}
BENCHMARK(BM_WasteMonteCarlo)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  vstream::bench::RunTelemetry::instance().init("model_interruption", &argc, argv);
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  vstream::bench::RunTelemetry::instance().finalize();
  return 0;
}
