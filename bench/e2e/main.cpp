// vstream_e2e — one workload of the end-to-end benchmark per process.
//
//   vstream_e2e --workload NAME [--seed N] [--seconds S] [--smoke]
//               [--trace FILE] [--workdir DIR]
//
// Prints one JSON object on the last line of stdout: the workload, its run
// header, attempted/failed operation counts with the first failed checks, and
// either the end-to-end metrics (untraced) or the per-layer metrics (with
// --trace, which also writes the spans to FILE as Chrome-trace JSON). Exit
// status 0 when every output check passed, 1 when one failed, 2 on usage
// errors. bench/e2e/run.py builds this program and drives it; see README.md.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace vstream::e2e;

/// Seconds of timed rounds in a smoke run.
constexpr double kSmokeSeconds = 0.3;

/// Removes the workload's scratch directory (the capture file) on every
/// exit path out of main.
class WorkdirGuard {
 public:
  explicit WorkdirGuard(std::string path) : path_{std::move(path)} {
    std::filesystem::create_directories(path_);
  }
  ~WorkdirGuard() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  WorkdirGuard(const WorkdirGuard&) = delete;
  WorkdirGuard& operator=(const WorkdirGuard&) = delete;

 private:
  std::string path_;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "vstream_e2e: %s\n"
               "usage: vstream_e2e --workload NAME [--seed N] [--seconds S] [--smoke]\n"
               "                   [--trace FILE] [--workdir DIR]\n"
               "workloads:",
               why);
  for (const std::string& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  o.jobs = std::min<long>(2, std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN)));
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace_out = value;
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (std::find(workload_names().begin(), workload_names().end(), o.workload) ==
      workload_names().end()) {
    return usage(("unknown workload '" + o.workload + "'").c_str());
  }
  if (!(o.seconds > 0.0)) return usage("--seconds must be > 0");
  if (o.smoke) o.seconds = kSmokeSeconds;
  o.traced = !trace_out.empty();
  if (o.workdir.empty()) o.workdir = ".bench_work/" + o.workload + "-" + std::to_string(getpid());

  Outcome out;
  SpanLog log{o.jobs};
  try {
    const WorkdirGuard workdir{o.workdir};
    out = run_workload(o, log);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vstream_e2e: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  if (o.traced) {
    std::ofstream file{trace_out, std::ios::trunc};
    file << log.chrome_json(out.trace_other_data);
    if (!file) {
      std::fprintf(stderr, "vstream_e2e: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  } else if (out.attempted > 0) {
    const auto attempted = static_cast<double>(out.attempted);
    out.end_to_end.emplace_back("ok_share",
                                (attempted - static_cast<double>(out.failed)) / attempted);
  }

  std::string errors = "[";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    errors += (i > 0 ? "," : "") + json_string(out.errors[i]);
  }
  errors += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"workers\":%zu,\"seconds\":%.17g,\"check_level\":%d,"
      "\"traced\":%s,\"attempted\":%llu,\"failed\":%llu,\"errors\":%s,\"metrics\":%s,"
      "\"info\":%s}\n",
      json_string(o.workload).c_str(), static_cast<unsigned long long>(o.seed), o.jobs,
      o.seconds, VSTREAM_CHECK_LEVEL, o.traced ? "true" : "false",
      static_cast<unsigned long long>(out.attempted), static_cast<unsigned long long>(out.failed),
      errors.c_str(), to_json(o.traced ? out.per_layer : out.end_to_end).c_str(),
      to_json(out.info).c_str());
  return out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
