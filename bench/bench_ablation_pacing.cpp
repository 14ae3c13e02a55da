// Ablations of the design choices DESIGN.md calls out.
//
// A. Server-push vs client-pull throttling at the *same* average rate:
//    identical steady-state rate and block cadence, but only the pull side
//    shows the zero-window signature — the Fig 2 diagnostic.
// B. Pull-quantum sweep across the 2.5 MB boundary: the short<->long
//    strategy classification flips exactly where the paper puts the line.
// C. Loss model sensitivity of block detection: the same average loss rate
//    applied independently (Bernoulli) vs in bursts (Gilbert-Elliott)
//    changes how often blocks split, i.e. the measured block-size tail.
// D. ON/OFF gap threshold vs the threshold-free autocorrelation estimator.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "analysis/periodicity.hpp"
#include "capture/recorder.hpp"
#include "http/exchange.hpp"
#include "net/path.hpp"
#include "streaming/clients.hpp"
#include "streaming/video_server.hpp"
#include "support.hpp"
#include "tcp/connection.hpp"

namespace {

using namespace vstream;
using streaming::Application;
using streaming::Service;
using video::Container;

video::VideoMeta test_video(double rate_bps, Container container) {
  video::VideoMeta v;
  v.id = "abl";
  v.duration_s = 900.0;
  v.encoding_bps = rate_bps;
  v.container = container;
  return v;
}

void ablation_push_vs_pull() {
  std::printf("A. server-push (Flash) vs client-pull (HTML5/IE), same ~1 Mbps video\n\n");
  const auto push =
      bench::run_and_analyze(bench::make_config(Service::kYouTube, Container::kFlash,
                                                Application::kInternetExplorer,
                                                net::Vantage::kResearch,
                                                test_video(1e6, Container::kFlash), 3101));
  const auto pull =
      bench::run_and_analyze(bench::make_config(Service::kYouTube, Container::kHtml5,
                                                Application::kInternetExplorer,
                                                net::Vantage::kResearch,
                                                test_video(1e6, Container::kHtml5), 3102));
  std::printf("  %-14s %12s %12s %14s %12s\n", "", "rate[Mbps]", "block[kB]", "zero-window",
              "OFF med[s]");
  for (const auto& [name, o] : {std::pair{"push (Flash)", &push}, {"pull (IE)", &pull}}) {
    std::printf("  %-14s %12.2f %12.0f %14zu %12.2f\n", name, o->analysis.steady_rate_bps / 1e6,
                o->analysis.median_block_bytes() / 1024.0,
                analysis::count_zero_window_episodes(o->result.trace),
                o->analysis.median_off_s());
  }
  std::printf("  -> same average rate; only the pull side drives rwnd to zero.\n");
}

void ablation_quantum_sweep() {
  std::printf("\nB. pull-quantum sweep across the 2.5 MB short/long boundary\n\n");
  std::printf("  %12s %12s %10s\n", "quantum[MB]", "block[MB]", "strategy");
  // Reuse the Chrome path but force the quantum through the session seed:
  // we call the lower-level client directly for exact control.
  for (const double quantum_mb : {0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 8.0}) {
    sim::Simulator sim;
    sim::Rng rng{42};
    auto profile = net::profile_for(net::Vantage::kResearch);
    net::Path path{sim, profile, rng};
    tcp::Fabric fabric{sim, path};
    capture::TraceRecorder recorder{sim, path};
    recorder.start();
    tcp::TcpOptions copt;
    copt.recv_buffer_bytes = 512 * 1024;
    auto& conn = fabric.create_connection(copt, {});
    const auto video = test_video(1.2e6, Container::kHtml5);
    streaming::VideoStreamServer server{sim, conn.server(), video,
                                        streaming::ServerPacing::bulk()};
    streaming::PullThrottleClient::Config pcfg;
    pcfg.buffering_target_bytes = 4 * 1024 * 1024;
    pcfg.pull_quantum_bytes = static_cast<std::uint64_t>(quantum_mb * 1048576.0);
    pcfg.accumulation_ratio = 1.2;
    pcfg.encoding_bps = video.encoding_bps;
    streaming::PullThrottleClient client{sim, conn.client(), pcfg, {}};
    conn.client().set_on_established([&] {
      http::HttpClient http{conn.client()};
      http.send_request(http::make_video_request(video.id));
    });
    conn.open();
    sim.run_until(sim::SimTime::from_seconds(bench::kCaptureSeconds));
    auto trace = recorder.take();
    const auto analysis = analysis::analyze_on_off(trace);
    const auto decision = analysis::classify_strategy(analysis, trace);
    std::printf("  %12.2f %12.2f %10s\n", quantum_mb,
                analysis.median_block_bytes() / 1048576.0,
                analysis::to_string(decision.strategy).c_str());
  }
  std::printf("  -> the classification flips exactly at the paper's 2.5 MB boundary.\n");
}

void ablation_loss_model() {
  // Large pulled blocks (Chrome) are the sensitive case: a loss-recovery
  // stall longer than the gap threshold splits a block in two.
  std::printf("\nC. loss-model sensitivity: Bernoulli vs bursty at the same average rate\n");
  std::printf("   (HTML5/Chrome on the Academic network: multi-MB blocks)\n\n");
  std::printf("  %-26s %12s %12s %12s %10s\n", "loss model", "p10 blk[MB]", "med blk[MB]",
              "retx [%]", "cycles");
  for (const double burst : {1.0, 4.0}) {
    auto profile = net::profile_for(net::Vantage::kAcademic);
    profile.loss_burst_len = burst;
    stats::EmpiricalCdf blocks;
    double retx = 0.0;
    constexpr int kRuns = 8;
    for (int run = 0; run < kRuns; ++run) {
      auto cfg = bench::make_config(Service::kYouTube, Container::kHtml5, Application::kChrome,
                                    net::Vantage::kAcademic,
                                    test_video(1.2e6, Container::kHtml5), 3301 + run);
      cfg.network = profile;
      const auto o = bench::run_and_analyze(cfg);
      for (const double b : o.analysis.block_sizes_bytes) blocks.add(b);
      retx += capture::TraceView{o.result.trace}.retransmission_fraction() * 100.0 / kRuns;
    }
    std::printf("  %-26s %12.2f %12.2f %12.2f %10zu\n",
                burst <= 1.0 ? "Bernoulli (burst=1)" : "Gilbert-Elliott (burst=4)",
                blocks.empty() ? 0.0 : blocks.inverse(0.1) / 1048576.0,
                blocks.empty() ? 0.0 : blocks.inverse(0.5) / 1048576.0, retx, blocks.size());
  }
  std::printf("  -> same average loss rate, different block-size tails: the loss model's\n"
              "     burst structure is visible in the measured block distribution.\n");
}

void ablation_gap_threshold() {
  std::printf("\nD. gap threshold vs the threshold-free periodicity estimator\n\n");
  const auto o =
      bench::run_and_analyze(bench::make_config(Service::kYouTube, Container::kFlash,
                                                Application::kInternetExplorer,
                                                net::Vantage::kResearch,
                                                test_video(1e6, Container::kFlash), 3401));
  const double truth = analysis::paced_cycle_duration_s(64 * 1024, 1.25, 1e6);
  std::printf("  ground-truth cycle duration       : %.3f s\n", truth);
  const auto periodicity = analysis::estimate_cycle_period(o.result.trace);
  if (periodicity.periodic) {
    std::printf("  autocorrelation estimate          : %.3f s (corr %.2f)\n",
                periodicity.period_s, periodicity.correlation);
  }
  std::printf("  gap-threshold sensitivity:\n");
  for (const double threshold : {0.05, 0.15, 0.30, 0.45}) {
    analysis::OnOffOptions opts;
    opts.gap_threshold_s = threshold;
    const auto a = analysis::analyze_on_off(o.result.trace, opts);
    double mean_cycle = 0.0;
    if (a.on_periods.size() > 2) {
      mean_cycle = (a.on_periods.back().start_s - a.on_periods[1].start_s) /
                   static_cast<double>(a.on_periods.size() - 2);
    }
    std::printf("    threshold %.2f s -> %4zu cycles, mean cycle %.3f s\n", threshold,
                a.block_sizes_bytes.size(), mean_cycle);
  }
  std::printf("  -> thresholds below the OFF duration all agree with the\n"
              "     autocorrelation estimate and the ground truth.\n");
}

void print_reproduction() {
  bench::print_header("Ablations -- pacing, boundary, loss model, threshold",
                      "design choices from DESIGN.md section 5");
  ablation_push_vs_pull();
  ablation_quantum_sweep();
  ablation_loss_model();
  ablation_gap_threshold();
}

void BM_PeriodicityEstimator(benchmark::State& state) {
  const auto o =
      bench::run_and_analyze(bench::make_config(Service::kYouTube, Container::kFlash,
                                                Application::kInternetExplorer,
                                                net::Vantage::kResearch,
                                                test_video(1e6, Container::kFlash), 3401));
  for (auto _ : state) {
    auto result = analysis::estimate_cycle_period(o.result.trace);
    benchmark::DoNotOptimize(result.period_s);
  }
  state.SetLabel("autocorrelation over one 180 s trace");
}
BENCHMARK(BM_PeriodicityEstimator)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  vstream::bench::RunTelemetry::instance().init("ablation_pacing", &argc, argv);
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  vstream::bench::RunTelemetry::instance().finalize();
  return 0;
}
