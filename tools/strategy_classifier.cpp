// strategy_classifier — label every TCP connection in a pcap capture with
// its streaming strategy (Table 1) and pacing parameters (§4), at line rate.
//
// The classifier is the parallel ingestion path end to end: per-connection
// lanes fan out across a ParallelSweep pool, each walking the mmapped
// zero-copy capture and classifying the connections it owns, and the merged
// table is byte-identical for every worker count (the lane layout is a
// function of the request, never of thread scheduling). `--jobs 1` is the
// one-lane serial reference.
//
//   ./build/tools/strategy_classifier capture.pcap           # human table
//   ./build/tools/strategy_classifier --json capture.pcap    # one JSON object
//   ./build/tools/strategy_classifier --csv capture.pcap     # header + rows
//   ./build/tools/strategy_classifier --jobs 8 capture.pcap  # pool width
//   ./build/tools/strategy_classifier --out table.csv --csv capture.pcap
//   ./build/tools/strategy_classifier --profile-out prof.json capture.pcap
//   ./build/tools/strategy_classifier --gen big.pcap --mb 1024 --connections 24
//   ./build/tools/strategy_classifier --selftest [scratch.pcap]
//
// --gen writes a deterministic synthetic multi-connection capture (the same
// generator the ingestion benchmark uses) so a ~1 GB classification can be
// reproduced anywhere. --selftest generates a small capture and proves the
// parallel/serial invariant on it (run under tsan in CI); exit 1 on any
// mismatch. --profile-out writes the SweepProfiler per-worker phase table
// (lanes = run, merge = merge) as JSON.
//
// Exit status: 0 on success, 1 on I/O or classification failure (corrupt
// captures are rejected with the reader's offset-bearing diagnostic), 2 on
// usage errors, including a --jobs or --connections that is not a
// non-negative integer, an --mb that is not a positive number and an --out
// or --profile-out path that cannot be opened for writing (checked before
// the capture is classified).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/connection_demux.hpp"
#include "analysis/parallel_classify.hpp"
#include "capture/pcap_reader.hpp"
#include "capture/synthetic.hpp"
#include "runner/cli.hpp"
#include "runner/parallel_sweep.hpp"
#include "runner/sweep_profiler.hpp"

namespace {

using vstream::analysis::CaptureClassification;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--jobs N] [--json|--csv] [--out file]\n"
               "       %*s [--profile-out file] <capture.pcap>\n"
               "       %s --gen <file.pcap> [--mb N] [--connections K]\n"
               "       %s --selftest [scratch.pcap]\n",
               argv0, static_cast<int>(std::strlen(argv0)), "", argv0, argv0);
  return 2;
}

/// Parse a whole `flag` argument as a count; "-1", "x" and "4x" are
/// reported rather than wrapped or truncated.
bool parse_count(const char* flag, const char* text, std::size_t& out) {
  if (vstream::runner::parse_whole(text, out)) return true;
  std::fprintf(stderr, "%s needs a non-negative integer, got '%s'\n", flag, text);
  return false;
}

int run_generate(const std::string& path, double mb, std::size_t connections) {
  vstream::capture::SyntheticCaptureOptions options;
  if (connections > 0) options.connections = connections;
  options.target_file_bytes = static_cast<std::uint64_t>(mb * 1024.0 * 1024.0);
  const auto summary = vstream::capture::write_synthetic_capture(path, options);
  std::printf("wrote %s: %llu records, %.1f MB, %.1f s of capture, %zu connections\n",
              path.c_str(), static_cast<unsigned long long>(summary.records),
              static_cast<double>(summary.file_bytes) / 1048576.0, summary.duration_s,
              options.connections);
  return 0;
}

/// --selftest: the parallel==serial invariant on a generated capture. The
/// tsan CI job runs exactly this, so every cross-thread edge of the
/// lanes/merge pipeline gets exercised under the race detector.
int run_selftest(const std::string& scratch) {
  vstream::capture::SyntheticCaptureOptions gen;
  gen.target_file_bytes = 4ULL << 20U;
  gen.connections = 7;  // not a multiple of any tested lane count
  vstream::capture::write_synthetic_capture(scratch, gen);

  const vstream::capture::MmapPcapReader reader{scratch};
  const CaptureClassification serial = vstream::analysis::classify_capture_serial(reader);
  const std::string serial_json = serial.to_json();
  const std::string serial_csv = serial.to_csv();
  std::printf("selftest capture: %llu records, %zu connections\n",
              static_cast<unsigned long long>(serial.records), serial.connections.size());

  int failures = 0;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const vstream::runner::ParallelSweep pool{jobs};
    const CaptureClassification parallel =
        vstream::analysis::classify_capture(reader, pool);
    const bool same = parallel == serial && parallel.to_json() == serial_json &&
                      parallel.to_csv() == serial_csv;
    std::printf("jobs=%zu: %s\n", jobs, same ? "identical to serial reference" : "DIVERGED");
    if (!same) ++failures;
  }
  std::remove(scratch.c_str());
  if (failures != 0) {
    std::printf("FAIL: %d worker configuration(s) diverged from the serial path\n", failures);
    return 1;
  }
  std::printf("ok: classification is byte-identical across worker counts\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vstream;
  std::size_t jobs = 0;
  bool as_json = false;
  bool as_csv = false;
  std::string out_path;
  std::string profile_path;
  std::string gen_path;
  double gen_mb = 16.0;
  std::size_t gen_connections = 0;
  bool selftest = false;
  std::vector<std::string> positional;

  for (int arg = 1; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--jobs") == 0 && arg + 1 < argc) {
      if (!parse_count("--jobs", argv[++arg], jobs)) return usage(argv[0]);
    } else if (std::strcmp(argv[arg], "--json") == 0) {
      as_json = true;
    } else if (std::strcmp(argv[arg], "--csv") == 0) {
      as_csv = true;
    } else if (std::strcmp(argv[arg], "--out") == 0 && arg + 1 < argc) {
      out_path = argv[++arg];
    } else if (std::strcmp(argv[arg], "--profile-out") == 0 && arg + 1 < argc) {
      profile_path = argv[++arg];
    } else if (std::strcmp(argv[arg], "--gen") == 0 && arg + 1 < argc) {
      gen_path = argv[++arg];
    } else if (std::strcmp(argv[arg], "--mb") == 0 && arg + 1 < argc) {
      if (!runner::parse_positive(argv[++arg], gen_mb)) {
        std::fprintf(stderr, "--mb needs a positive number, got '%s'\n", argv[arg]);
        return usage(argv[0]);
      }
    } else if (std::strcmp(argv[arg], "--connections") == 0 && arg + 1 < argc) {
      if (!parse_count("--connections", argv[++arg], gen_connections)) return usage(argv[0]);
    } else if (std::strcmp(argv[arg], "--selftest") == 0) {
      selftest = true;
    } else if (argv[arg][0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", argv[arg]);
      return usage(argv[0]);
    } else {
      positional.emplace_back(argv[arg]);
    }
  }
  if (as_json && as_csv) {
    std::fprintf(stderr, "pick one of --json / --csv\n");
    return usage(argv[0]);
  }

  try {
    if (!gen_path.empty()) {
      return run_generate(gen_path, gen_mb, gen_connections);
    }
    if (selftest) {
      return run_selftest(positional.empty() ? "strategy_classifier_selftest.pcap"
                                             : positional.front());
    }
    if (positional.size() != 1) return usage(argv[0]);

    // Every output is opened before the capture is classified.
    std::ofstream out_file;
    std::ofstream profile_file;
    if (!runner::open_output("strategy_classifier", out_path, out_file) ||
        !runner::open_output("strategy_classifier", profile_path, profile_file)) {
      return 2;
    }

    const capture::MmapPcapReader reader{positional.front()};
    const runner::ParallelSweep pool{jobs};
    runner::SweepProfiler profiler{pool.jobs()};
    const CaptureClassification result =
        analysis::classify_capture(reader, pool, {}, &profiler);

    const std::string text =
        as_json ? result.to_json() + "\n" : as_csv ? result.to_csv() : result.render();
    if (out_path.empty()) {
      std::fputs(text.c_str(), stdout);
    } else if (!(out_file << text)) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }

    // Phase timing to stderr so stdout stays byte-comparable across runs
    // (and across --jobs, which the selftest and CI assert on).
    const auto summary = profiler.summary();
    std::fprintf(stderr,
                 "classified %zu connections from %llu records in %.3f s "
                 "(%zu workers, %.0f%% busy)\n",
                 result.connections.size(), static_cast<unsigned long long>(result.records),
                 summary.wall_s, summary.workers, summary.utilization() * 100.0);
    if (!profile_path.empty()) {
      profile_file << summary.to_json("strategy_classifier") << "\n";
      std::fprintf(stderr, "wrote profile to %s\n", profile_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
