// pcap_analyzer — run the paper's trace analysis on a pcap file.
//
// Works on captures written by this library (strategy_explorer can produce
// them) and on any Ethernet/IPv4/TCP capture of a single streaming session
// taken at the viewer side (the down direction is detected by which peer
// sends the bulk of the payload).
//
// Usage: pcap_analyzer [--json] [--flows] [--dump]
//        [--metrics out.json] [--trace-out out.json]
//        <file.pcap> [encoding_rate_mbps]
//
// An encoding rate that is not a positive number exits 2 with the usage
// text. A --metrics or --trace-out path that cannot be opened for writing
// exits 2 with a one-line diagnostic before the capture is read.
//
// Every output comes from one streamed pass over the file (a second pass
// only for a mirrored capture): the trace is never materialised.
//
// --trace-out synthesizes a Chrome trace-event timeline from the offline
// analysis — per-connection lifetimes, steady-state ON blocks, and the
// buffering phase — so a foreign pcap gets the same Perfetto view a live
// --trace-out simulation run produces.
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/accumulators.hpp"
#include "analysis/flows.hpp"
#include "analysis/onoff.hpp"
#include "analysis/report.hpp"
#include "analysis/report_json.hpp"
#include "analysis/streaming_report.hpp"
#include "capture/dump.hpp"
#include "capture/pcap.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/cli.hpp"

namespace {

/// Rebuild an offline metrics registry from the capture — the per-flow
/// counters a live session's instrumentation would have produced — and
/// write it with the flow table as one JSON object.
void write_metrics(std::ostream& out, const vstream::analysis::SessionReport& report,
                   const vstream::analysis::FlowTable& table) {
  using namespace vstream;
  obs::MetricsRegistry reg;
  reg.counter("analyzer.packets").inc(report.packets);
  reg.counter("analyzer.connections").inc(table.flows.size());
  auto& flow_down = reg.histogram(
      "analyzer.flow_down_bytes",
      {64.0 * 1024, 1024.0 * 1024, 10.0 * 1024 * 1024, 100.0 * 1024 * 1024});
  for (const auto& f : table.flows) {
    reg.counter("analyzer.down_payload_bytes").inc(f.down_payload_bytes);
    reg.counter("analyzer.up_payload_bytes").inc(f.up_payload_bytes);
    reg.counter("analyzer.retransmitted_bytes").inc(f.retransmitted_bytes);
    flow_down.observe(static_cast<double>(f.down_payload_bytes));
  }
  reg.counter("analyzer.zero_window_episodes").inc(report.zero_window_episodes);
  out << obs::json::Object{}
             .raw("flows", analysis::to_json(table))
             .raw("metrics", reg.snapshot().to_json())
             .close()
      << "\n";
}

/// --trace-out: rebuild a span timeline from the offline analysis. The live
/// path emits these spans as the simulation runs; here the flow table and
/// the ON/OFF analysis recover the same episodes from packet times alone.
void write_chrome_trace(std::ostream& out, const vstream::analysis::FlowTable& table,
                        const vstream::analysis::OnOffAnalysis& analysis) {
  using namespace vstream;
  obs::ChromeTraceWriter writer;
  std::uint64_t next_span = 1;
  const auto add_span = [&](const char* category, std::string name, double begin_s, double end_s,
                            std::uint64_t id, std::string detail) {
    obs::SpanRecord span;
    span.t_begin_s = begin_s;
    span.t_end_s = end_s;
    span.span_id = next_span++;
    span.id = id;
    span.category = category;
    span.name = std::move(name);
    span.detail = std::move(detail);
    writer.add(obs::TraceEvent{std::move(span)});
  };

  if (analysis.buffering_end_s > analysis.first_packet_s) {
    add_span("player", "buffering", analysis.first_packet_s, analysis.buffering_end_s, 0,
             std::to_string(analysis.buffering_bytes) + " bytes");
  }
  for (const auto& flow : table.flows) {
    add_span("tcp", "connection", flow.first_packet_s, flow.last_packet_s, flow.connection_id,
             std::to_string(flow.down_payload_bytes) + " bytes down");
  }
  for (const auto& on : analysis.on_periods) {
    // Pre-steady periods are part of buffering; render steady ON blocks only.
    if (on.start_s < analysis.buffering_end_s) continue;
    add_span("fetch", "on_block", on.start_s, on.end_s, 0,
             std::to_string(on.bytes) + " bytes");
  }

  writer.write(out);
}

constexpr std::size_t kDumpPackets = 40;

/// What one pass over the capture produces. The flow table, the ON/OFF
/// analysis and the head are filled only when an output needs them.
struct CaptureAnalysis {
  vstream::analysis::SessionReport report;
  vstream::analysis::FlowTable flows;
  vstream::analysis::OnOffAnalysis onoff;
  std::vector<vstream::capture::PacketRecord> head;  ///< first kDumpPackets records
};

/// Walk the file once, feeding every record to the report builder and to
/// the accumulators the requested outputs need: memory stays O(1) in the
/// capture length once the handshake is seen. Foreign captures need a
/// direction heuristic (the video flows in the direction carrying most
/// payload), and it is a whole-file question, so the rule is the
/// classifier's: the first pass consumes the file as written while the
/// payload totals accumulate, and only when the totals say the capture is
/// mirrored does a second pass run with directions flipped. Our own
/// writer's captures never take that pass.
CaptureAnalysis analyze_capture(const std::string& path,
                                const vstream::analysis::ReportOptions& options,
                                bool need_flows, bool need_onoff, bool need_head) {
  using namespace vstream;
  std::uint64_t down_payload = 0;
  std::uint64_t up_payload = 0;
  const auto pass = [&](bool flip) {
    analysis::StreamingReportBuilder builder{options};
    analysis::FlowAccumulator flows;
    analysis::OnOffAccumulator onoff;
    CaptureAnalysis out;
    double t_first = 0.0;
    double t_last = 0.0;
    bool any = false;
    capture::for_each_pcap_record(path, [&](const capture::PacketRecord& r) {
      if (!any) t_first = r.t_s;
      any = true;
      t_last = r.t_s;
      (r.direction == net::Direction::kDown ? down_payload : up_payload) += r.payload_bytes;
      capture::PacketRecord fed = r;
      if (flip) fed.direction = net::opposite(r.direction);
      builder.add(fed);
      if (need_flows) flows.add(fed);
      if (need_onoff) onoff.add(fed);
      if (need_head && out.head.size() < kDumpPackets) out.head.push_back(fed);
    });
    builder.set_label(path);
    builder.set_duration_s(any ? t_last - t_first : 0.0);
    out.report = builder.finish();
    if (need_flows) out.flows = flows.finish();
    if (need_onoff) out.onoff = onoff.finish();
    return out;
  };
  CaptureAnalysis as_written = pass(false);
  if (up_payload > down_payload) return pass(true);
  return as_written;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--flows] [--dump] [--metrics out.json] "
               "[--trace-out out.json] <file.pcap> [encoding_rate_mbps]\n",
               argv0);
  return 2;
}

int run(int argc, char** argv) {
  using namespace vstream;
  bool as_json = false;
  bool with_flows = false;
  bool dump = false;
  std::string metrics_path;
  std::string trace_path;
  int arg = 1;
  while (arg < argc && argv[arg][0] == '-') {
    if (std::strcmp(argv[arg], "--json") == 0) {
      as_json = true;
    } else if (std::strcmp(argv[arg], "--flows") == 0) {
      with_flows = true;
    } else if (std::strcmp(argv[arg], "--dump") == 0) {
      dump = true;
    } else if (std::strcmp(argv[arg], "--metrics") == 0 && arg + 1 < argc) {
      metrics_path = argv[++arg];
    } else if (std::strcmp(argv[arg], "--trace-out") == 0 && arg + 1 < argc) {
      trace_path = argv[++arg];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[arg]);
      return 2;
    }
    ++arg;
  }
  if (arg >= argc) return usage(argv[0]);
  analysis::ReportOptions options;
  if (arg + 1 < argc) {
    double rate_mbps = 0.0;
    if (!runner::parse_positive(argv[arg + 1], rate_mbps)) {
      std::fprintf(stderr, "pcap_analyzer: bad value '%s' for encoding_rate_mbps\n",
                   argv[arg + 1]);
      return usage(argv[0]);
    }
    options.encoding_bps = rate_mbps * 1e6;
  }
  argv += arg - 1;
  argc -= arg - 1;

  // Every output is opened before any work runs.
  std::ofstream metrics_out;
  std::ofstream trace_out;
  if (!runner::open_output("pcap_analyzer", metrics_path, metrics_out) ||
      !runner::open_output("pcap_analyzer", trace_path, trace_out)) {
    return 2;
  }

  const CaptureAnalysis result =
      analyze_capture(argv[1], options, with_flows || !metrics_path.empty() || !trace_path.empty(),
                      !trace_path.empty(), dump);
  const analysis::SessionReport& report = result.report;
  if (!metrics_path.empty()) {
    write_metrics(metrics_out, report, result.flows);
    std::fprintf(stderr, "wrote metrics to %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    write_chrome_trace(trace_out, result.flows, result.onoff);
    std::fprintf(stderr, "wrote Chrome trace to %s (open in https://ui.perfetto.dev)\n",
                 trace_path.c_str());
  }
  if (as_json) {
    obs::json::Object out;
    out.raw("report", analysis::to_json(report));
    if (with_flows) out.raw("flows", analysis::to_json(result.flows));
    std::puts(out.close().c_str());
    return 0;
  }
  std::fputs(report.render().c_str(), stdout);
  if (dump) {
    std::printf("\nfirst packets (tcpdump style):\n");
    for (const auto& p : result.head) std::printf("%s\n", capture::format_packet(p).c_str());
    if (report.packets >= kDumpPackets) {
      std::printf("... (%zu packets total)\n", report.packets);
    }
  }
  if (with_flows) std::printf("\nper-connection flows:\n%s", result.flows.render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
