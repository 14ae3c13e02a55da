// Section 6.1, validated with the packet-level simulator itself.
//
// The model benches validate Eq (3)/(4) against an idealised flow-level
// Monte Carlo. Here we go one level deeper: superpose *packet-level*
// streaming sessions (each a full TCP/HTTP/pacing simulation) with Poisson
// arrival offsets, bin the aggregate download rate, and compare its mean
// and variance with the closed forms. This also demonstrates the
// strategy-independence claim on real traffic, not just on the idealised
// rate functions.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "model/aggregate.hpp"
#include "stats/descriptive.hpp"
#include "support.hpp"

namespace {

using namespace vstream;
using streaming::Application;
using streaming::Service;
using video::Container;

struct AggregateOutcome {
  double mean_bps{0.0};
  double variance{0.0};
  double mean_encoding_bps{0.0};
  double mean_duration_s{0.0};
  double mean_on_rate_bps{0.0};
  std::size_t sessions{0};
};

/// Superpose sessions of one strategy with Poisson(lambda) arrivals. At
/// most `n` sessions are run; the observation window shrinks to what the
/// arrivals actually cover so the intensity stays exactly lambda.
AggregateOutcome superpose(Container container, Application application, double lambda,
                           std::size_t n, std::uint64_t seed) {
  sim::Rng rng{seed};
  constexpr double kDuration = 120.0;  // per-video playback length
  constexpr double kMaxHorizon = 600.0;

  // Generate the arrival process first so the window is known.
  std::vector<double> arrivals;
  double t = 0.0;
  while (arrivals.size() < n) {
    t += rng.exponential(lambda);
    if (t > kMaxHorizon) break;
    arrivals.push_back(t);
  }
  const double horizon = std::min(kMaxHorizon, t);
  AggregateOutcome out;
  if (horizon <= 150.0 || arrivals.empty()) return out;
  // Bits per 1 s bin over [kWarmup, horizon), skipping the ramp-up.
  constexpr double kWarmup = 100.0;
  std::vector<double> rate(static_cast<std::size_t>(std::ceil(horizon - kWarmup)), 0.0);

  std::size_t launched = 0;
  stats::OnlineStats on_rate;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const double arrival = arrivals[i];
    video::VideoMeta v;
    v.id = "agg" + std::to_string(i);
    v.duration_s = kDuration;
    v.encoding_bps = rng.uniform(0.6e6, 1.4e6);
    v.container = container;
    auto cfg = bench::make_config(Service::kYouTube, container, application,
                                  net::Vantage::kResearch, v, seed + i);
    cfg.capture_duration_s = kDuration * 1.6;  // let throttled sessions finish
    const auto result = streaming::run_session(cfg);
    out.mean_encoding_bps += v.encoding_bps;
    out.mean_duration_s += v.duration_s;
    ++launched;
    // Shift the session's packets by its arrival time and bin them.
    double on_bytes = 0.0;
    double on_time = 0.0;
    double prev_t = -1.0;
    for (const auto& p : result.trace.packets) {
      if (p.direction != net::Direction::kDown || p.payload_bytes == 0) continue;
      const double since_warmup = arrival + p.t_s - kWarmup;
      if (since_warmup >= 0.0 && since_warmup < static_cast<double>(rate.size())) {
        rate[static_cast<std::size_t>(since_warmup)] += static_cast<double>(p.payload_bytes) * 8.0;
      }
      if (prev_t >= 0.0 && p.t_s - prev_t < 0.05) {
        on_time += p.t_s - prev_t;
        on_bytes += p.payload_bytes;
      }
      prev_t = p.t_s;
    }
    if (on_time > 0.0) on_rate.add(on_bytes * 8.0 / on_time);
  }
  out.mean_bps = stats::mean(rate);
  out.variance = stats::variance(rate);
  out.mean_encoding_bps /= static_cast<double>(launched);
  out.mean_duration_s /= static_cast<double>(launched);
  out.mean_on_rate_bps = on_rate.mean();
  out.sessions = launched;
  return out;
}

void print_reproduction() {
  bench::print_header("Section 6.1 -- packet-level validation of the aggregate model",
                      "Rao et al., CoNEXT 2011, Eq (3)/(4) over simulated TCP traffic");
  const double lambda = 0.25;
  const std::size_t n = std::max<std::size_t>(60, bench::sessions_per_sweep() * 2);

  struct Case {
    const char* name;
    Container container;
    Application application;
  };
  const Case cases[] = {
      {"No ON-OFF (HTML5/Firefox)", Container::kHtml5, Application::kFirefox},
      {"Short ON-OFF (Flash)", Container::kFlash, Application::kInternetExplorer},
      {"Long ON-OFF (HTML5/Chrome)", Container::kHtml5, Application::kChrome},
  };

  std::printf("lambda = %.2f sessions/s, ~1 Mbps 120 s videos, Research network\n\n", lambda);
  std::printf("%-28s %9s %12s %12s %12s\n", "strategy", "sessions", "mean [Mbps]", "eq(3)",
              "sd [Mbps]");
  for (const auto& c : cases) {
    const auto outcome = superpose(c.container, c.application, lambda, n, 9001);
    model::AggregateParams p;
    p.lambda_per_s = lambda;
    p.mean_encoding_bps = outcome.mean_encoding_bps;
    p.mean_duration_s = outcome.mean_duration_s;
    p.mean_download_rate_bps = outcome.mean_on_rate_bps;
    std::printf("%-28s %9zu %12.2f %12.2f %12.2f\n", c.name, outcome.sessions,
                outcome.mean_bps / 1e6, model::mean_aggregate_rate_bps(p) / 1e6,
                std::sqrt(outcome.variance) / 1e6);
  }
  std::printf(
      "\nnotes:\n"
      "  - the mean aggregate rate is strategy-independent (Section 6.1\n"
      "    conclusion 2): the three mean columns agree with Eq (3).\n"
      "  - the measured sd depends on the observation timescale: 1 s bins\n"
      "    average out Flash's sub-second 64 kB cycles (so Short measures a\n"
      "    lower sd at this scale), while bulk and multi-MB long cycles stay\n"
      "    bursty. Eq (4)'s G is the rate visible at the chosen timescale --\n"
      "    the paper's variance identity holds per timescale, which the\n"
      "    flow-level Monte Carlo (bench_model_aggregate) verifies exactly.\n");
}

void BM_SuperposeSessions(benchmark::State& state) {
  for (auto _ : state) {
    auto outcome = superpose(Container::kFlash, Application::kInternetExplorer, 0.2,
                             static_cast<std::size_t>(state.range(0)), 9001);
    benchmark::DoNotOptimize(outcome.mean_bps);
  }
  state.SetLabel(std::to_string(state.range(0)) + " sessions");
}
BENCHMARK(BM_SuperposeSessions)->Arg(10)->Arg(30)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  vstream::bench::RunTelemetry::instance().init("model_empirical", &argc, argv);
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  vstream::bench::RunTelemetry::instance().finalize();
  return 0;
}
