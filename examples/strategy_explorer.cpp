// strategy_explorer — run any (service, container, application, network)
// combination from the paper's Table 1 and analyse the traffic like the
// paper did; optionally export the capture as .pcap and .csv.
//
// Usage:
//   strategy_explorer [service] [container] [application] [network]
//                     [duration_s] [rate_mbps] [pcap_path]
//   strategy_explorer netflix silverlight android academic
//   strategy_explorer youtube html5 chrome research 600 1.2 /tmp/chrome.pcap
//
// Every argument is optional; defaults reproduce the quickstart Flash run.
// A duration, rate or sweep count that is not a positive number exits 2
// with the usage text.
//
// Sweep mode fans N seeds of one combination across cores (worker count
// from VSTREAM_JOBS, default hardware concurrency, 1 = serial):
//   strategy_explorer sweep 16 [service] [container] [application] [network]
//
// --trace-out FILE (single-run mode) attaches a live Chrome-trace sink to
// the session: fetch/player/TCP/link spans land in FILE, ready for
// https://ui.perfetto.dev. Tracing is digest-neutral — the session's
// results are identical with or without it. A FILE that cannot be opened
// for writing exits 2 before the session runs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/ack_clock.hpp"
#include "analysis/flows.hpp"
#include "analysis/onoff.hpp"
#include "analysis/strategy.hpp"
#include "capture/csv.hpp"
#include "capture/pcap.hpp"
#include "obs/chrome_trace.hpp"
#include "runner/cli.hpp"
#include "runner/parallel_sweep.hpp"
#include "streaming/session_builder.hpp"
#include "video/datasets.hpp"

namespace {

using namespace vstream;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [youtube|netflix] [flash|flashhd|html5|silverlight]\n"
               "          [ie|firefox|chrome|ios|android] [research|residence|academic|home]\n"
               "          [duration_s] [rate_mbps] [pcap_path]\n",
               argv0);
  std::exit(2);
}

[[noreturn]] void bad_value(const char* argv0, const char* what, const char* text) {
  std::fprintf(stderr, "strategy_explorer: bad value '%s' for %s\n", text, what);
  usage(argv0);
}

streaming::Service parse_service(const std::string& s, const char* argv0) {
  if (s == "youtube") return streaming::Service::kYouTube;
  if (s == "netflix") return streaming::Service::kNetflix;
  usage(argv0);
}

video::Container parse_container(const std::string& s, const char* argv0) {
  if (s == "flash") return video::Container::kFlash;
  if (s == "flashhd") return video::Container::kFlashHd;
  if (s == "html5") return video::Container::kHtml5;
  if (s == "silverlight") return video::Container::kSilverlight;
  usage(argv0);
}

streaming::Application parse_application(const std::string& s, const char* argv0) {
  if (s == "ie") return streaming::Application::kInternetExplorer;
  if (s == "firefox") return streaming::Application::kFirefox;
  if (s == "chrome") return streaming::Application::kChrome;
  if (s == "ios") return streaming::Application::kIosNative;
  if (s == "android") return streaming::Application::kAndroidNative;
  usage(argv0);
}

net::Vantage parse_vantage(const std::string& s, const char* argv0) {
  if (s == "research") return net::Vantage::kResearch;
  if (s == "residence") return net::Vantage::kResidence;
  if (s == "academic") return net::Vantage::kAcademic;
  if (s == "home") return net::Vantage::kHome;
  usage(argv0);
}

/// Sweep mode: N seeds of one combination, fanned across workers. Every
/// session is an independent world, so the per-seed rows are identical for
/// any VSTREAM_JOBS value — only the wall time changes.
int run_sweep(std::size_t count, const streaming::SessionConfig& base) {
  std::vector<streaming::SessionConfig> configs(count, base);
  for (std::size_t i = 0; i < count; ++i) configs[i].seed = 1000 + i;

  const runner::ParallelSweep pool;
  const auto results = pool.map<streaming::SessionResult>(
      count, [&configs](std::size_t i) { return streaming::run_session(configs[i]); });

  std::printf("sweep: %zu sessions of %s across %zu workers\n\n", count,
              results.empty() ? "?" : results.front().trace.label.c_str(), pool.jobs());
  std::printf("%6s %10s %12s %14s %s\n", "seed", "down MB", "steady Mbps", "median blk kB",
              "strategy");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto analysis = analysis::analyze_on_off(results[i].trace);
    const auto decision = analysis::classify_strategy(analysis, results[i].trace);
    std::printf("%6llu %10.2f %12.2f %14.0f %s\n",
                static_cast<unsigned long long>(configs[i].seed),
                results[i].bytes_downloaded / 1048576.0,
                analysis.has_steady_state() ? analysis.steady_rate_bps / 1e6 : 0.0,
                analysis.has_steady_state() ? analysis.median_block_bytes() / 1024.0 : 0.0,
                analysis::to_string(decision.strategy).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* argv0 = argv[0];
  // `--trace-out FILE` may lead the argument list; everything after shifts.
  std::string trace_path;
  if (argc > 2 && std::strcmp(argv[1], "--trace-out") == 0) {
    trace_path = argv[2];
    argc -= 2;
    argv += 2;
  }
  // `strategy_explorer sweep N [combo...]` shifts the combo args by two.
  std::size_t sweep_count = 0;
  if (argc > 1 && std::strcmp(argv[1], "sweep") == 0) {
    sweep_count = 8;
    if (argc > 2 && !runner::parse_positive(argv[2], sweep_count)) {
      bad_value(argv0, "the sweep count", argv[2]);
    }
    argc -= 2;
    argv += 2;
  }

  const auto service = argc > 1 ? parse_service(argv[1], argv0) : streaming::Service::kYouTube;
  const auto container = argc > 2 ? parse_container(argv[2], argv0) : video::Container::kFlash;
  const auto application =
      argc > 3 ? parse_application(argv[3], argv0) : streaming::Application::kInternetExplorer;
  const auto vantage = argc > 4 ? parse_vantage(argv[4], argv0) : net::Vantage::kResearch;

  video::VideoMeta meta;
  meta.id = "explorer";
  meta.duration_s = 600.0;
  double rate_mbps = 1.2;
  if (argc > 5 && !runner::parse_positive(argv[5], meta.duration_s)) {
    bad_value(argv0, "duration_s", argv[5]);
  }
  if (argc > 6 && !runner::parse_positive(argv[6], rate_mbps)) {
    bad_value(argv0, "rate_mbps", argv[6]);
  }
  meta.encoding_bps = rate_mbps * 1e6;
  meta.container = container;
  if (service == streaming::Service::kNetflix) {
    meta.duration_s = std::max(meta.duration_s, 1800.0);
    meta.available_rates_bps = video::netflix_rate_ladder();
    meta.encoding_bps = meta.available_rates_bps.back();
  }

  if (!streaming::combination_supported(service, container, application)) {
    std::fprintf(stderr, "combination not applicable (Table 1 says N/A)\n");
    return 1;
  }
  // The builder re-runs the Table 1 check (and the rest of the validation)
  // in build(); the explicit check above keeps the friendlier message.
  streaming::SessionConfig cfg = streaming::SessionBuilder{}
                                     .service(service)
                                     .container(container)
                                     .application(application)
                                     .vantage(vantage)
                                     .video(meta)
                                     .capture_duration_s(180.0)
                                     .seed(1)
                                     .build();

  if (sweep_count > 0) {
    if (!trace_path.empty()) {
      std::fprintf(stderr, "--trace-out applies to single runs only, not sweep mode\n");
      return 2;
    }
    return run_sweep(sweep_count, cfg);
  }

  // Keep the auxiliary hosts in the capture so the filtered-out traffic can
  // be reported; the analysis below runs on the zero-copy video view.
  cfg.keep_full_trace = true;
  std::unique_ptr<obs::ChromeTraceSink> trace_sink;
  if (!trace_path.empty()) {
    try {
      trace_sink = std::make_unique<obs::ChromeTraceSink>(trace_path);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "strategy_explorer: %s\n", e.what());
      return 2;
    }
    cfg.trace_sink = trace_sink.get();
  }
  const auto result = streaming::run_session(cfg);
  if (trace_sink) {
    if (!trace_sink->close()) {
      std::fprintf(stderr, "strategy_explorer: cannot write %s\n", trace_path.c_str());
      return 2;
    }
    std::printf("span timeline        : %s (open in https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  const auto video = result.video_trace();
  const auto analysis = analysis::analyze_on_off(video);
  const auto decision = analysis::classify_strategy(analysis, video);

  std::printf("session              : %s\n", result.trace.label.c_str());
  std::printf("strategy             : %s ON-OFF (%s)\n",
              analysis::to_string(decision.strategy).c_str(), decision.rationale.c_str());
  std::printf("packets / connections: %zu / %zu\n", video.count(), result.connections);
  std::printf("downloaded           : %.2f MB in %.0f s\n",
              result.bytes_downloaded / 1048576.0, cfg.capture_duration_s);
  std::printf("buffering            : %.2f MB, ends %.2f s\n",
              analysis.buffering_bytes / 1048576.0, analysis.buffering_end_s);
  if (analysis.has_steady_state()) {
    std::printf("steady state         : %.2f Mbps, median block %.0f kB, median OFF %.2f s\n",
                analysis.steady_rate_bps / 1e6, analysis.median_block_bytes() / 1024.0,
                analysis.median_off_s());
    std::printf("accumulation ratio   : %.2f (vs estimated rate %.2f Mbps)\n",
                analysis.accumulation_ratio(result.encoding_bps_estimated),
                result.encoding_bps_estimated / 1e6);
  }
  std::printf("retransmissions      : %.2f%% of down bytes\n",
              video.retransmission_fraction() * 100.0);
  std::printf("zero-window episodes : %zu\n", analysis::count_zero_window_episodes(video));
  if (const auto rtt = analysis::estimate_handshake_rtt(video)) {
    std::printf("handshake RTT        : %.1f ms\n", *rtt * 1000.0);
  }
  std::printf("player               : started %.2f s, watched %.1f s, %u stalls\n",
              result.player.start_time_s, result.player.watched_s, result.player.stall_count);
  const capture::TraceView all{result.trace};
  std::printf("auxiliary traffic    : %.2f MB over %zu extra connections (filtered out above)\n",
              (all.down_payload_bytes() - video.down_payload_bytes()) / 1048576.0,
              all.connection_count() - video.connection_count());

  if (result.connections > 3) {
    const auto flows = analysis::build_flow_table(video);
    std::printf("\nper-connection video flows (first 12):\n");
    auto text = flows.render();
    std::size_t lines = 0;
    std::size_t pos = 0;
    while (lines < 13 && pos != std::string::npos) {
      pos = text.find('\n', pos + 1);
      ++lines;
    }
    std::printf("%s", text.substr(0, pos == std::string::npos ? text.size() : pos + 1).c_str());
  }

  if (argc > 7) {
    const std::string pcap_path = argv[7];
    const auto video_owned = video.materialize();
    capture::write_pcap(video_owned, pcap_path);
    capture::write_packets_csv(video_owned, pcap_path + ".csv");
    std::printf("capture written      : %s (+.csv)\n", pcap_path.c_str());
    // Round-trip sanity: the analysis runs identically on the file.
    const auto reloaded = capture::read_pcap(pcap_path);
    const auto re_analysis = analysis::analyze_on_off(reloaded);
    std::printf("pcap round trip      : %zu packets, %zu cycles (in-memory: %zu)\n",
                reloaded.packets.size(), re_analysis.block_sizes_bytes.size(),
                analysis.block_sizes_bytes.size());
  }
  return 0;
}
