// The five end-to-end workloads of vstream_e2e (README.md says why each
// was chosen). Every workload builds its inputs from `Options::seed` alone,
// sets itself up several times (setup_s is the median of the faster half),
// then repeats its timed round until `seconds` have passed, checking every
// output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace vstream::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{20.0};
  /// Inputs at ~2% of the reference size and a single set-up.
  bool smoke{false};
  /// Pool workers: min(2, nproc), set by main().
  std::size_t jobs{1};
  /// Traced run: timed rounds alternate untraced and traced, spans are kept
  /// for the traced ones, and per-layer metrics replace end-to-end ones.
  bool traced{false};
  /// Directory for generated inputs (the capture file); created and removed
  /// by main().
  std::string workdir;
};

struct Outcome {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;  ///< the first few failed checks, verbatim
  Metrics end_to_end;               ///< untraced run
  Metrics per_layer;                ///< traced run
  Metrics info;                     ///< sample counts and sizes, both runs
  std::string trace_other_data;     ///< JSON object for the trace's otherData

  /// Count one checked operation; `error` non-empty marks it failed.
  void check(bool ok, const std::string& error);
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload. Throws std::invalid_argument for an unknown name.
[[nodiscard]] Outcome run_workload(const Options& options, SpanLog& log);

}  // namespace vstream::e2e
