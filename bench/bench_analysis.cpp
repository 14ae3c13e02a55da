// Analysis-pipeline microbench — batch vs zero-copy views vs the
// single-pass streaming report builder.
//
// Sections:
//   1. 10k-session synthetic sweep: build a SessionReport per session the
//      batch way (materialise the trace, then `build_report` over it) and
//      the streaming way (`StreamingReportBuilder` consuming the record
//      stream, nothing stored), timed back to back per session with the
//      order alternating. The speedup is the headline acceptance metric;
//      the first sessions are also checked field-identical between the
//      two paths.
//   2. peak-RSS probe: one multi-million-record capture analysed streaming
//      first, then batch; /proc VmHWM before/after quantifies the memory
//      the trace vector costs the batch path.
//   3. zero-copy view vs copy filter: host-restricted aggregates via
//      `TraceView::host(0)` against a frozen copy of the deleted
//      materialising `PacketTrace::only_host(0)`.
//
// `--metrics-out` writes BENCH_analysis.json; tools/check_bench_floor.py
// compares the extra.* metrics against bench/analysis_floor.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/report.hpp"
#include "analysis/report_json.hpp"
#include "analysis/streaming_report.hpp"
#include "capture/trace.hpp"
#include "capture/trace_view.hpp"
#include "sim/rng.hpp"
#include "support.hpp"

namespace {

using namespace vstream;

// ---- synthetic session traces --------------------------------------------

constexpr std::uint32_t kMss = 1448;
constexpr double kSynthEncodingBps = 1.5e6;

capture::PacketRecord make_record(double t, net::Direction dir, std::uint32_t payload,
                                  std::uint64_t seq, std::uint64_t ack, net::TcpFlag flags,
                                  bool retx, std::uint64_t window) {
  capture::PacketRecord r;
  r.t_s = t;
  r.direction = dir;
  r.connection_id = 0;
  r.host = 0;
  r.seq = seq;
  r.ack = ack;
  r.payload_bytes = payload;
  r.window_bytes = window;
  r.flags = flags;
  r.is_retransmission = retx;
  return r;
}

/// Emit one plausible short-ON-OFF video session: handshake, a buffering
/// burst at link rate, then 64 kB blocks separated by ~0.35 s OFF gaps,
/// with ACKs every third data packet and a sprinkle of retransmissions.
/// Deterministic per seed; the same stream feeds every pipeline under test.
template <typename Emit>
void synth_session(std::uint64_t seed, double duration_s, Emit&& emit) {
  sim::Rng rng{seed};
  const double rtt = rng.uniform(0.02, 0.06);
  const double link_bps = rng.uniform(5e6, 8e6);
  const double gap = kMss * 8.0 / link_bps;
  const double buffering_s = rng.uniform(3.0, 5.0);
  const std::uint64_t window = 256 * 1024;

  std::uint64_t seq = 0;
  std::uint64_t peer_seq = 0;
  emit(make_record(0.0, net::Direction::kUp, 0, peer_seq, 0, net::TcpFlag::kSyn, false, window));
  emit(make_record(rtt / 2, net::Direction::kDown, 0, seq, peer_seq + 1,
                   net::TcpFlag::kSyn | net::TcpFlag::kAck, false, window));
  emit(make_record(rtt, net::Direction::kUp, 0, peer_seq + 1, seq + 1, net::TcpFlag::kAck, false,
                   window));

  double t = rtt;
  int since_ack = 0;
  const auto data_packet = [&](double at) {
    const bool retx = rng.bernoulli(0.004);
    emit(make_record(at, net::Direction::kDown, kMss, seq, peer_seq + 1,
                     net::TcpFlag::kAck | net::TcpFlag::kPsh, retx, window));
    if (!retx) seq += kMss;
    if (++since_ack >= 3) {
      since_ack = 0;
      emit(make_record(at + gap / 3, net::Direction::kUp, 0, peer_seq + 1, seq,
                       net::TcpFlag::kAck, false, window));
    }
  };

  while (t < rtt + buffering_s && t < duration_s) {
    data_packet(t);
    t += gap;
  }
  const std::size_t block_packets = 64 * 1024 / kMss;
  while (t < duration_s) {
    t += rng.uniform(0.3, 0.42);  // OFF gap, well above the 0.15 s threshold
    for (std::size_t i = 0; i < block_packets && t < duration_s; ++i) {
      data_packet(t);
      t += gap;
    }
  }
}

analysis::ReportOptions synth_options() {
  analysis::ReportOptions options;
  options.encoding_bps = kSynthEncodingBps;
  return options;
}

capture::PacketTrace materialize_session(std::uint64_t seed, double duration_s) {
  capture::PacketTrace trace;
  synth_session(seed, duration_s, [&](const capture::PacketRecord& r) { trace.packets.push_back(r); });
  trace.duration_s = duration_s;
  return trace;
}

analysis::SessionReport batch_report(std::uint64_t seed, double duration_s) {
  const auto trace = materialize_session(seed, duration_s);
  return analysis::build_report(trace, synth_options());
}

analysis::SessionReport streaming_report(std::uint64_t seed, double duration_s) {
  analysis::StreamingReportBuilder builder{synth_options()};
  synth_session(seed, duration_s, [&](const capture::PacketRecord& r) { builder.add(r); });
  builder.set_duration_s(duration_s);
  return builder.finish();
}

/// The copy-returning host filter `PacketTrace` used to have, frozen here
/// as the baseline the zero-copy view is measured against: reserve the
/// full size, then copy the matching records. Out of line, as the library
/// member was, so the copy is not fused into the timing loop.
[[gnu::noinline]] capture::PacketTrace copy_host(const capture::PacketTrace& trace,
                                                 std::uint8_t host) {
  capture::PacketTrace out;
  out.label = trace.label;
  out.encoding_bps = trace.encoding_bps;
  out.duration_s = trace.duration_s;
  out.packets.reserve(trace.packets.size());
  for (const auto& p : trace.packets) {
    if (p.host == host) out.packets.push_back(p);
  }
  return out;
}

/// The plain down-payload sum `PacketTrace` used to have, frozen here so
/// the copy side sums its copy exactly as before. Out of line, as the
/// library member was.
[[gnu::noinline]] std::uint64_t copied_down_payload_bytes(const capture::PacketTrace& trace) {
  std::uint64_t total = 0;
  for (const auto& p : trace.packets) {
    if (p.direction == net::Direction::kDown) total += p.payload_bytes;
  }
  return total;
}

[[nodiscard]] double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---- report --------------------------------------------------------------

constexpr std::size_t kSweepSessions = 10'000;
constexpr double kSweepDuration = 12.0;
constexpr double kBigSessionDuration = 14'000.0;  // ~2M records

void print_reproduction() {
  bench::print_header("Analysis microbench -- batch vs views vs streaming pipeline",
                      "perf trajectory baseline (no paper figure)");
  auto& telemetry = bench::RunTelemetry::instance();

  // -- equivalence spot check before timing anything -----------------------
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const auto batch = batch_report(seed, kSweepDuration);
    const auto stream = streaming_report(seed, kSweepDuration);
    if (!(batch == stream)) {
      std::fprintf(stderr, "FATAL: batch/streaming reports differ for seed %llu\nbatch: %s\nstream: %s\n",
                   static_cast<unsigned long long>(seed), analysis::to_json(batch).c_str(),
                   analysis::to_json(stream).c_str());
      std::exit(1);
    }
    ++checked;
  }
  std::printf("equivalence: batch == streaming on %zu synthetic sessions\n\n", checked);

  // -- peak-RSS probe (before the sweeps so the big allocation is the only
  //    thing separating the two snapshots) --------------------------------
  std::uint64_t stream_records = 0;
  {
    analysis::StreamingReportBuilder builder{synth_options()};
    synth_session(77, kBigSessionDuration, [&](const capture::PacketRecord& r) {
      builder.add(r);
      ++stream_records;
    });
    builder.set_duration_s(kBigSessionDuration);
    benchmark::DoNotOptimize(builder.finish().packets);
  }
  const std::size_t rss_stream_kb = runner::peak_rss_kb();
  {
    const auto trace = materialize_session(77, kBigSessionDuration);
    benchmark::DoNotOptimize(analysis::build_report(trace, synth_options()).packets);
  }
  const std::size_t rss_batch_kb = runner::peak_rss_kb();
  const double rss_reduction = rss_stream_kb > 0
                                   ? static_cast<double>(rss_batch_kb) / rss_stream_kb
                                   : 0.0;
  std::printf("peak RSS, one %llu-record capture (%.0f s synthetic session)\n",
              static_cast<unsigned long long>(stream_records), kBigSessionDuration);
  std::printf("  streaming : %8zu kB VmHWM (report in constant space)\n", rss_stream_kb);
  std::printf("  batch     : %8zu kB VmHWM (trace vector + report passes)\n", rss_batch_kb);
  std::printf("  reduction : %.2fx\n", rss_reduction);
  telemetry.note_metric("peak_rss_reduction_vs_batch", rss_reduction);

  // -- 10k-session sweep ---------------------------------------------------
  // Each session's streaming and batch reports are timed back to back,
  // alternating which goes first, and each side is summed: host speed that
  // drifts during the sweep then slows both sides alike instead of
  // whichever loop it happened to overlap.
  std::uint64_t sweep_records = 0;
  double t_stream = 0.0;
  double t_batch = 0.0;
  const auto time_stream = [&](std::uint64_t seed) {
    const auto t0 = std::chrono::steady_clock::now();
    analysis::StreamingReportBuilder builder{synth_options()};
    synth_session(seed, kSweepDuration, [&](const capture::PacketRecord& r) {
      builder.add(r);
      ++sweep_records;
    });
    builder.set_duration_s(kSweepDuration);
    benchmark::DoNotOptimize(builder.finish().packets);
    t_stream += wall_seconds_since(t0);
  };
  const auto time_batch = [&](std::uint64_t seed) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(batch_report(seed, kSweepDuration).packets);
    t_batch += wall_seconds_since(t0);
  };
  for (std::size_t i = 0; i < kSweepSessions; ++i) {
    if (i % 2 == 0) {
      time_stream(1000 + i);
      time_batch(1000 + i);
    } else {
      time_batch(1000 + i);
      time_stream(1000 + i);
    }
  }

  const double speedup = t_batch / t_stream;
  std::printf("\n%zu-session synthetic sweep (%.0f s sessions, ~%llu records each)\n",
              kSweepSessions, kSweepDuration,
              static_cast<unsigned long long>(sweep_records / kSweepSessions));
  std::printf("  batch     : %7.2f s (materialise + build_report)\n", t_batch);
  std::printf("  streaming : %7.2f s (single pass, nothing stored)\n", t_stream);
  std::printf("  speedup   : %.2fx\n", speedup);
  telemetry.note_metric("report_build_speedup_vs_batch", speedup);
  telemetry.note_metric("streaming_records_per_sec",
                        static_cast<double>(sweep_records) / t_stream);
  telemetry.note_metric("batch_records_per_sec", static_cast<double>(sweep_records) / t_batch);

  // -- zero-copy view vs copy filter --------------------------------------
  auto mixed = materialize_session(7, 60.0);
  {  // interleave auxiliary-host packets so the filter has work to do
    const std::size_t n = mixed.packets.size();
    for (std::size_t i = 0; i < n / 4; ++i) {
      auto aux = mixed.packets[i * 4];
      aux.host = 1;
      aux.connection_id = 100 + i % 5;
      mixed.packets.push_back(aux);
    }
  }
  constexpr int kFilterReps = 200;
  const auto t_copy0 = std::chrono::steady_clock::now();
  std::uint64_t copy_sum = 0;
  for (int r = 0; r < kFilterReps; ++r) {
    copy_sum += copied_down_payload_bytes(copy_host(mixed, 0));
  }
  const double t_copy = wall_seconds_since(t_copy0);
  const auto t_view0 = std::chrono::steady_clock::now();
  std::uint64_t view_sum = 0;
  for (int r = 0; r < kFilterReps; ++r) {
    view_sum += capture::TraceView{mixed}.host(0).down_payload_bytes();
  }
  const double t_view = wall_seconds_since(t_view0);
  if (copy_sum != view_sum) {
    std::fprintf(stderr, "FATAL: view/copy aggregate mismatch\n");
    std::exit(1);
  }
  const double view_speedup = t_copy / t_view;
  std::printf("\nhost-filtered aggregate, %zu-record mixed trace, %d reps\n",
              mixed.packets.size(), kFilterReps);
  std::printf("  copied filter  : %7.3f s\n", t_copy);
  std::printf("  TraceView      : %7.3f s\n", t_view);
  std::printf("  speedup        : %.2fx\n", view_speedup);
  telemetry.note_metric("view_filter_speedup_vs_copy", view_speedup);
}

// ---- google-benchmark sections ------------------------------------------

void BM_BatchReport(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch_report(42, kSweepDuration).packets);
  }
  state.SetLabel("materialise trace + build_report");
}
BENCHMARK(BM_BatchReport)->Unit(benchmark::kMillisecond);

void BM_StreamingReport(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(streaming_report(42, kSweepDuration).packets);
  }
  state.SetLabel("single-pass StreamingReportBuilder, nothing stored");
}
BENCHMARK(BM_StreamingReport)->Unit(benchmark::kMillisecond);

void BM_CopyFilterAggregate(benchmark::State& state) {
  const auto trace = materialize_session(42, 60.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(copied_down_payload_bytes(copy_host(trace, 0)));
  }
  state.SetLabel("copied host(0) filter");
}
BENCHMARK(BM_CopyFilterAggregate)->Unit(benchmark::kMillisecond);

void BM_ViewFilterAggregate(benchmark::State& state) {
  const auto trace = materialize_session(42, 60.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(capture::TraceView{trace}.host(0).down_payload_bytes());
  }
  state.SetLabel("zero-copy TraceView::host(0)");
}
BENCHMARK(BM_ViewFilterAggregate)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  vstream::bench::RunTelemetry::instance().init("analysis", &argc, argv);
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  vstream::bench::RunTelemetry::instance().finalize();
  return 0;
}
