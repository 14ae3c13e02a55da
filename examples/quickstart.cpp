// Quickstart: stream one YouTube Flash video from the Research network,
// capture the traffic viewer-side, and run the paper's analysis on it —
// phases, ON-OFF cycles, block sizes, accumulation ratio, strategy.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart
#include <cstdio>

#include "analysis/ack_clock.hpp"
#include "analysis/onoff.hpp"
#include "analysis/strategy.hpp"
#include "streaming/session_builder.hpp"

int main() {
  using namespace vstream;

  // A 1 Mbps, 5-minute video streamed via Flash in Internet Explorer.
  video::VideoMeta meta;
  meta.id = "demo";
  meta.duration_s = 300.0;
  meta.encoding_bps = 1e6;
  meta.resolution = video::Resolution::k360p;
  meta.container = video::Container::kFlash;

  const auto cfg = streaming::SessionBuilder{}
                       .service(streaming::Service::kYouTube)
                       .container(video::Container::kFlash)
                       .application(streaming::Application::kInternetExplorer)
                       .vantage(net::Vantage::kResearch)
                       .video(meta)
                       .capture_duration_s(180.0)
                       .seed(42)
                       .build();

  std::printf("streaming %s for %.0f s ...\n", cfg.video.id.c_str(), cfg.capture_duration_s);
  const auto result = streaming::SessionBuilder{cfg}.run();

  std::printf("\n== session: %s ==\n", result.trace.label.c_str());
  std::printf("packets captured      : %zu\n", result.trace.packets.size());
  std::printf("bytes downloaded      : %.2f MB\n", result.bytes_downloaded / 1048576.0);
  std::printf("TCP connections       : %zu\n", result.connections);
  std::printf("player started at     : %.2f s\n", result.player.start_time_s);
  std::printf("content watched       : %.1f s (stalls: %u)\n", result.player.watched_s,
              result.player.stall_count);

  const auto analysis = analysis::analyze_on_off(result.trace);
  const auto decision = analysis::classify_strategy(analysis, result.trace);

  std::printf("\n== paper-style analysis ==\n");
  std::printf("buffering phase ends  : %.2f s\n", analysis.buffering_end_s);
  std::printf("buffering amount      : %.2f MB (%.1f s of playback)\n",
              analysis.buffering_bytes / 1048576.0,
              analysis.buffered_playback_s(result.encoding_bps_true));
  std::printf("steady-state rate     : %.2f Mbps\n", analysis.steady_rate_bps / 1e6);
  std::printf("accumulation ratio    : %.2f\n",
              analysis.accumulation_ratio(result.encoding_bps_true));
  std::printf("ON-OFF cycles         : %zu (median block %.0f kB, median OFF %.2f s)\n",
              analysis.block_sizes_bytes.size(), analysis.median_block_bytes() / 1024.0,
              analysis.median_off_s());
  std::printf("strategy              : %s ON-OFF cycles (%s)\n",
              analysis::to_string(decision.strategy).c_str(), decision.rationale.c_str());

  const auto first_rtt = analysis::first_rtt_bytes(result.trace, analysis);
  if (!first_rtt.empty()) {
    double sum = 0.0;
    for (const double b : first_rtt) sum += b;
    std::printf("ack clock             : %.0f kB arrive in the first RTT of an ON period\n",
                sum / first_rtt.size() / 1024.0);
    std::printf("                        (the full block: the congestion window survives idle)\n");
  }
  return 0;
}
