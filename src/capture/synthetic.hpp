// Deterministic synthetic multi-connection captures for the ingestion path.
//
// The ingestion benchmark, the `strategy_classifier --selftest/--gen` modes
// and the classifier tests all need the same thing: a large pcap whose
// per-connection ground truth is known by construction, produced in O(1)
// memory at disk speed. `write_synthetic_capture` streams a time-sorted
// merge of K independent connection scripts straight into a `PcapWriter`;
// the mix covers every Table-1 strategy plus ack-clock and zero-window
// variety so the classifier's whole row schema is exercised:
//
//   connection c (1-based id):
//     c % 3 == 1  ->  short ON-OFF cycles (256 KiB blocks, 2 s gaps),
//                     with a zero-window episode closing every block;
//     c % 3 == 2  ->  long ON-OFF cycles (4 MiB blocks, 4 s gaps);
//     c % 3 == 0  ->  bulk transfer, no steady state (paper's "no ON-OFF");
//     c % 6 == 5  ->  additionally sends each block as a back-to-back burst
//                     (no ack clock: the whole block lands inside one RTT).
//
// Everything is pure arithmetic — no RNG, no wall clock — so the same
// options always produce byte-identical files.
#pragma once

#include <cstdint>
#include <string>

namespace vstream::capture {

struct SyntheticCaptureOptions {
  std::size_t connections{6};
  /// Approximate on-disk size to generate; the writer stops at the record
  /// boundary that reaches it (each record is a fixed 70 bytes on disk).
  std::uint64_t target_file_bytes{16ULL << 20U};
  /// Stagger between successive connections' handshakes.
  double start_spacing_s{0.05};
};

struct SyntheticCaptureSummary {
  std::uint64_t records{0};
  std::uint64_t file_bytes{0};
  std::uint64_t down_payload_bytes{0};
  double duration_s{0.0};
};

/// Generate the capture at `path`. Throws on I/O failure.
SyntheticCaptureSummary write_synthetic_capture(const std::string& path,
                                                const SyntheticCaptureOptions& options = {});

}  // namespace vstream::capture
