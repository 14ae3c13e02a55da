// Ingestion microbench — the perf trajectory for the line-rate pcap path.
//
// Sections:
//   1. seed reader replica: the pre-mmap ingestion loop (ifstream reads, a
//      heap-allocated frame vector per record, std::function dispatch) kept
//      here verbatim as the fixed baseline the floor is measured against —
//      the same technique bench_engine uses for the legacy engine;
//   2. mmap scan: the zero-copy templated reader decoding the same file;
//   3. end-to-end classification (per-connection lanes + merge)
//      at 1/2/4 workers, with the parallel-vs-serial byte-equality check
//      the floor gates as a correctness metric (classifier_output_invariant
//      must be 1);
//   4. google-benchmark sections over the same kernels on a small capture.
//
// The capture is synthetic (capture/synthetic.hpp): deterministic,
// headers-only, VSTREAM_INGEST_CAPTURE_MB on-disk megabytes (default 64;
// the README walkthrough uses 1024 for the ~1 GB run).
//
// `--metrics-out` writes BENCH_ingest.json; tools/check_bench_floor.py
// compares against bench/ingest_floor.json in the CI perf-smoke job. The
// gated throughput metric is normalized per worker (min(4, hw_threads)) so
// a narrower runner cannot produce a vacuous failure; the raw speedups ride
// along as ungated extras.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/connection_demux.hpp"
#include "analysis/parallel_classify.hpp"
#include "analysis/streaming_report.hpp"
#include "capture/pcap.hpp"
#include "capture/pcap_reader.hpp"
#include "capture/pcap_wire.hpp"
#include "capture/synthetic.hpp"
#include "runner/parallel_sweep.hpp"
#include "support.hpp"
#include "tcp/seqspace.hpp"

namespace {

using namespace vstream;

[[nodiscard]] double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---- seed reader replica -------------------------------------------------
// The ingestion loop as it stood before the mmap reader: buffered ifstream,
// one heap vector per record, std::function per-record dispatch, and a
// map-of-pairs unwrap. Byte-for-byte the records it yields are identical to
// the current reader's — only the cost differs, which is the point.

void seed_for_each_record(const std::string& path,
                          const std::function<void(const capture::PacketRecord&)>& fn) {
  namespace wire = capture::wire;
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"seed reader: cannot open " + path};

  const auto read_raw = [&in](auto& v) {
    in.read(reinterpret_cast<char*>(&v), sizeof v);
    return in.gcount() == static_cast<std::streamsize>(sizeof v);
  };
  std::uint32_t magic{};
  if (!read_raw(magic) || (magic != wire::kMagicMicros && magic != wire::kMagicNanos)) {
    throw std::runtime_error{"seed reader: bad magic in " + path};
  }
  const double subsecond_unit = magic == wire::kMagicNanos ? 1e-9 : 1e-6;
  std::uint16_t vmaj{};
  std::uint16_t vmin{};
  std::int32_t zone{};
  std::uint32_t sigfigs{};
  std::uint32_t snaplen{};
  std::uint32_t linktype{};
  if (!read_raw(vmaj) || !read_raw(vmin) || !read_raw(zone) || !read_raw(sigfigs) ||
      !read_raw(snaplen) || !read_raw(linktype) || linktype != wire::kLinkTypeEthernet) {
    throw std::runtime_error{"seed reader: bad global header in " + path};
  }

  std::map<std::pair<std::uint64_t, int>, std::uint64_t> seq_reference;
  const auto unwrap = [&seq_reference](std::uint64_t conn, int dir, std::uint32_t w) {
    const auto [it, fresh] = seq_reference.try_emplace({conn, dir}, w);
    if (fresh) return static_cast<std::uint64_t>(w);
    const std::uint64_t absolute = tcp::from_wire(w, it->second);
    it->second = std::max(it->second, absolute);
    return absolute;
  };
  while (true) {
    std::uint32_t ts_sec{};
    std::uint32_t ts_usec{};
    std::uint32_t incl_len{};
    std::uint32_t orig_len{};
    if (!read_raw(ts_sec)) break;  // clean EOF
    if (!read_raw(ts_usec) || !read_raw(incl_len) || !read_raw(orig_len)) {
      throw std::runtime_error{"seed reader: truncated record header in " + path};
    }
    std::vector<std::uint8_t> frame(incl_len);
    in.read(reinterpret_cast<char*>(frame.data()), static_cast<std::streamsize>(incl_len));
    if (in.gcount() != static_cast<std::streamsize>(incl_len)) {
      throw std::runtime_error{"seed reader: truncated frame in " + path};
    }
    if (incl_len < wire::kHeadersBytes) continue;
    const std::uint8_t* ip = frame.data() + wire::kEthernetBytes;
    if ((ip[0] >> 4U) != 4 || ip[9] != 6) continue;

    const std::uint8_t* tcp_hdr = frame.data() + wire::kEthernetBytes + wire::kIpv4Bytes;
    capture::PacketRecord r;
    r.t_s = static_cast<double>(ts_sec) + static_cast<double>(ts_usec) * subsecond_unit;
    const std::uint32_t src_ip = wire::get_u32be(ip + 12);
    const std::uint32_t dst_ip = wire::get_u32be(ip + 16);
    const auto in_server_net = [](std::uint32_t addr) {
      return (addr & 0xFFFFFF00U) == (wire::kServerIp & 0xFFFFFF00U);
    };
    r.direction = in_server_net(src_ip) ? net::Direction::kDown : net::Direction::kUp;
    const std::uint32_t server_addr = in_server_net(src_ip) ? src_ip : dst_ip;
    if (in_server_net(server_addr) && server_addr >= wire::kServerIp) {
      r.host = static_cast<std::uint8_t>(server_addr - wire::kServerIp);
    }
    const std::uint16_t src_port = wire::get_u16be(tcp_hdr + 0);
    const std::uint16_t dst_port = wire::get_u16be(tcp_hdr + 2);
    const std::uint16_t client_port =
        r.direction == net::Direction::kDown ? dst_port : src_port;
    r.connection_id =
        client_port >= wire::kClientPortBase ? client_port - wire::kClientPortBase : 0;
    const int dir_index = r.direction == net::Direction::kDown ? 0 : 1;
    r.seq = unwrap(r.connection_id, dir_index, wire::get_u32be(tcp_hdr + 4));
    r.ack = unwrap(r.connection_id, 1 - dir_index, wire::get_u32be(tcp_hdr + 8));
    r.flags = wire::tcp_flags_from_bits(tcp_hdr[13]);
    r.window_bytes = static_cast<std::uint64_t>(wire::get_u16be(tcp_hdr + 14))
                     << capture::kPcapWindowShift;
    r.is_retransmission = wire::get_u16be(ip + 4) == 1;
    r.payload_bytes = orig_len >= wire::kHeadersBytes
                          ? static_cast<std::uint32_t>(orig_len - wire::kHeadersBytes)
                          : 0;
    fn(r);
  }
}

struct ScanTotals {
  std::uint64_t records{0};
  std::uint64_t payload_bytes{0};
};

ScanTotals seed_scan(const std::string& path) {
  ScanTotals totals;
  seed_for_each_record(path, [&totals](const capture::PacketRecord& r) {
    ++totals.records;
    totals.payload_bytes += r.payload_bytes;
  });
  return totals;
}

ScanTotals mmap_scan(const std::string& path) {
  ScanTotals totals;
  capture::for_each_pcap_record(path, [&totals](const capture::PacketRecord& r) {
    ++totals.records;
    totals.payload_bytes += r.payload_bytes;
  });
  return totals;
}

[[nodiscard]] double capture_mb_setting() {
  const char* env = std::getenv("VSTREAM_INGEST_CAPTURE_MB");
  if (env != nullptr) {
    const double mb = std::atof(env);
    if (mb > 0.0) return mb;
  }
  return 64.0;
}

void print_reproduction(const std::string& scratch) {
  bench::print_header("Line-rate pcap ingestion -- mmap reader + per-connection lanes",
                      "perf trajectory baseline (no paper figure)");
  auto& telemetry = bench::RunTelemetry::instance();

  const std::size_t hw = runner::job_count();
  telemetry.note_metric("hw_threads", static_cast<double>(hw));
  const double norm_workers = static_cast<double>(std::min<std::size_t>(4, hw));

  const double mb = capture_mb_setting();
  capture::SyntheticCaptureOptions gen;
  gen.target_file_bytes = static_cast<std::uint64_t>(mb * 1024.0 * 1024.0);
  gen.connections = 24;
  const auto t_gen = std::chrono::steady_clock::now();
  const auto summary = capture::write_synthetic_capture(scratch, gen);
  const double gen_s = wall_seconds_since(t_gen);
  const double file_mb = static_cast<double>(summary.file_bytes) / 1048576.0;
  std::printf("capture: %llu records, %.1f MB on disk, %zu connections (generated in %.2f s)\n",
              static_cast<unsigned long long>(summary.records), file_mb, gen.connections, gen_s);
  telemetry.note_metric("capture_mb", file_mb);
  telemetry.note_metric("capture_records", static_cast<double>(summary.records));

  // 1. seed reader replica --------------------------------------------
  const auto t_seed = std::chrono::steady_clock::now();
  const ScanTotals seed = seed_scan(scratch);
  const double seed_s = wall_seconds_since(t_seed);
  const double seed_rate = file_mb / seed_s;
  std::printf("\nseed reader (ifstream + per-record vector + std::function)\n");
  std::printf("  %.2f s  %.0f MB/s  %.0f records/s\n", seed_s, seed_rate,
              static_cast<double>(seed.records) / seed_s);
  telemetry.note_metric("seed_read_mb_per_s", seed_rate);

  // 2. mmap zero-copy scan --------------------------------------------
  const auto t_mmap = std::chrono::steady_clock::now();
  const ScanTotals mmapped = mmap_scan(scratch);
  const double mmap_s = wall_seconds_since(t_mmap);
  const double mmap_rate = file_mb / mmap_s;
  std::printf("\nmmap reader (zero-copy cursor, inlined visitor)\n");
  std::printf("  %.2f s  %.0f MB/s  %.0f records/s  scan speedup %.1fx\n", mmap_s, mmap_rate,
              static_cast<double>(mmapped.records) / mmap_s, seed_s / mmap_s);
  telemetry.note_metric("mmap_read_mb_per_s", mmap_rate);
  telemetry.note_metric("scan_speedup_vs_seed", seed_s / mmap_s);
  if (seed.records != mmapped.records || seed.payload_bytes != mmapped.payload_bytes) {
    std::printf("  WARNING: seed and mmap scans disagree (%llu/%llu records)\n",
                static_cast<unsigned long long>(seed.records),
                static_cast<unsigned long long>(mmapped.records));
  }

  // 3. end-to-end classification at 1/2/4 workers ---------------------
  const capture::MmapPcapReader reader{scratch};
  const auto time_classify = [&](std::size_t jobs, analysis::CaptureClassification* out) {
    const runner::ParallelSweep pool{jobs};
    const auto t0 = std::chrono::steady_clock::now();
    auto result = analysis::classify_capture(reader, pool);
    const double s = wall_seconds_since(t0);
    benchmark::DoNotOptimize(result.connections.size());
    if (out != nullptr) *out = std::move(result);
    return s;
  };
  analysis::CaptureClassification via1;
  analysis::CaptureClassification via4;
  const double c1 = time_classify(1, &via1);
  const double c2 = time_classify(2, nullptr);
  const double c4 = time_classify(4, &via4);
  const analysis::CaptureClassification serial =
      analysis::classify_capture_serial(reader);
  const bool invariant = via1 == serial && via4 == serial &&
                         via4.to_json() == serial.to_json() &&
                         via4.to_csv() == serial.to_csv();
  std::printf("\nper-connection classification (lanes + merge)\n");
  std::printf("  1 worker : %6.2f s  %.0f MB/s\n", c1, file_mb / c1);
  std::printf("  2 workers: %6.2f s  %.0f MB/s  speedup %.2fx\n", c2, file_mb / c2, c1 / c2);
  std::printf("  4 workers: %6.2f s  %.0f MB/s  speedup %.2fx\n", c4, file_mb / c4, c1 / c4);
  std::printf("  output   : %zu connections, parallel vs serial %s\n", serial.connections.size(),
              invariant ? "byte-identical" : "DIVERGED");
  telemetry.note_metric("classify_mb_per_s_1_worker", file_mb / c1);
  telemetry.note_metric("classify_mb_per_s_4_workers", file_mb / c4);
  telemetry.note_metric("classify_speedup_4_workers", c1 / c4);
  telemetry.note_metric("ingest_mb_per_s_per_worker", file_mb / c4 / norm_workers);
  telemetry.note_metric("classifier_output_invariant", invariant ? 1.0 : 0.0);

  // The headline number: the whole ingestion pipeline, before vs after.
  // Seed end-to-end = seed reader feeding the same per-connection analysis
  // serially; new end-to-end = mmap + 4-worker lanes.
  const auto t_seed_e2e = std::chrono::steady_clock::now();
  std::map<std::uint64_t, analysis::StreamingReportBuilder> seed_builders;
  seed_for_each_record(scratch, [&seed_builders](const capture::PacketRecord& r) {
    seed_builders.try_emplace(r.connection_id).first->second.add(r);
  });
  std::vector<analysis::SessionReport> seed_reports;
  seed_reports.reserve(seed_builders.size());
  for (auto& [id, builder] : seed_builders) seed_reports.push_back(builder.finish());
  const double seed_e2e_s = wall_seconds_since(t_seed_e2e);
  benchmark::DoNotOptimize(seed_reports.size());
  const double speedup = seed_e2e_s / c4;
  std::printf("\nend-to-end ingest+classify: seed %.2f s vs mmap+4 workers %.2f s -> %.1fx\n",
              seed_e2e_s, c4, speedup);
  telemetry.note_metric("seed_classify_s", seed_e2e_s);
  telemetry.note_metric("ingest_speedup_vs_seed", speedup);

  std::remove(scratch.c_str());
}

// ---- google-benchmark sections ------------------------------------------

constexpr const char* kSmallCapture = "bench_ingest_small.pcap";

void ensure_small_capture() {
  static bool done = false;
  if (done) return;
  capture::SyntheticCaptureOptions gen;
  gen.target_file_bytes = 4ULL << 20U;
  gen.connections = 8;
  capture::write_synthetic_capture(kSmallCapture, gen);
  done = true;
}

void BM_SeedReader(benchmark::State& state) {
  ensure_small_capture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(seed_scan(kSmallCapture).records);
  }
  state.SetLabel("ifstream + per-record vector + std::function");
}
BENCHMARK(BM_SeedReader)->Unit(benchmark::kMillisecond);

void BM_MmapScan(benchmark::State& state) {
  ensure_small_capture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mmap_scan(kSmallCapture).records);
  }
  state.SetLabel("mmap cursor, inlined visitor, zero copies");
}
BENCHMARK(BM_MmapScan)->Unit(benchmark::kMillisecond);

void BM_Classify(benchmark::State& state) {
  ensure_small_capture();
  const capture::MmapPcapReader reader{kSmallCapture};
  const runner::ParallelSweep pool{static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::classify_capture(reader, pool).packets);
  }
  state.SetLabel("per-connection lanes + ordered merge");
}
BENCHMARK(BM_Classify)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  vstream::bench::RunTelemetry::instance().init("ingest", &argc, argv);
  print_reproduction("bench_ingest_capture.pcap");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::remove(kSmallCapture);
  vstream::bench::RunTelemetry::instance().finalize();
  return 0;
}
