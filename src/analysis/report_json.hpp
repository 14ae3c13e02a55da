// JSON rendering of SessionReport and FlowTable — the machine-readable
// counterpart of the text reports, for downstream tooling. Written through
// the obs/json codec, which owns number, null and escaping rules.
#pragma once

#include <string>

#include "analysis/flows.hpp"
#include "analysis/report.hpp"
#include "obs/metrics.hpp"

namespace vstream::analysis {

/// Render a report as a single JSON object. Optional fields appear as null.
[[nodiscard]] std::string to_json(const SessionReport& report);

/// As above, with the run's metrics-registry snapshot embedded under a
/// top-level "metrics" key (omitted when the snapshot is empty).
[[nodiscard]] std::string to_json(const SessionReport& report,
                                  const obs::MetricsSnapshot& metrics);

/// Render a flow table as a JSON array of flow objects.
[[nodiscard]] std::string to_json(const FlowTable& table);

}  // namespace vstream::analysis
