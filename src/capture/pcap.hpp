// Classic libpcap-format file I/O for packet traces.
//
// Traces are written as truncated captures (headers only, like
// `tcpdump -s 54`): Ethernet + IPv4 + TCP headers with the payload length
// reflected in the original-length field. Simulation metadata is packed
// into legitimate header fields so a round trip preserves the analysis
// inputs:
//   - direction        -> IP addresses (server 10.0.0.1 <-> client 192.168.1.2)
//   - connection id    -> client TCP port (10000 + id)
//   - retransmission   -> IP identification field (1 = retransmission)
//   - receive window   -> TCP window, scaled by 2^7 as if a window-scale
//                         option had been negotiated (values round down to a
//                         multiple of 128; zero stays zero)
//
// Reading rides `MmapPcapReader` (pcap_reader.hpp): zero-copy mapped
// records, all four pcap magics (µs/ns, native/byte-swapped), diagnostic
// errors on truncated or corrupt files. `for_each_pcap_record` takes its
// visitor as a template parameter and inlines it into the record loop; a
// caller holding a `std::function` passes it straight through.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "capture/pcap_reader.hpp"
#include "capture/pcap_wire.hpp"
#include "capture/trace.hpp"

namespace vstream::capture {

/// TCP window scale applied when writing (as if WS=7 was negotiated).
inline constexpr unsigned kPcapWindowShift = wire::kWindowShift;

/// Streaming pcap writer: global header on construction, one record per
/// `add`, no trace materialisation — a multi-GB synthetic capture streams
/// straight to disk in O(1) memory. Throws on I/O failure.
class PcapWriter {
 public:
  explicit PcapWriter(const std::string& path);

  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  /// Append one record (must be fed in capture-time order for the readers'
  /// gap analyses to make sense; the writer itself does not reorder).
  void add(const PacketRecord& record);

  /// Flush and close; throws if the stream failed. The destructor closes
  /// without throwing for writers that already called close().
  void close();

  [[nodiscard]] std::uint64_t records_written() const { return records_; }

 private:
  // 1 MiB, so a record costs a memcpy; the default filebuf would syscall
  // every few 70-byte records. Declared before `out_` so it outlives the
  // stream's final flush.
  std::vector<char> stream_buffer_;
  std::ofstream out_;
  std::string path_;
  std::uint64_t records_{0};
};

/// Serialise the trace to `path` in pcap format. Throws on I/O failure.
void write_pcap(const PacketTrace& trace, const std::string& path);

/// Parse a pcap file written by `write_pcap` (or any capture of TCP over
/// IPv4 over Ethernet). Label and encoding-rate metadata are not part of
/// the format and are left for the caller to fill.
[[nodiscard]] PacketTrace read_pcap(const std::string& path);

/// Stream every record of a pcap file to `fn` in file order without
/// materialising a trace — same parsing and unwrapping as `read_pcap`,
/// O(1) memory in the capture length. The visitor is a template parameter:
/// the record loop inlines it, with no per-record `std::function` dispatch
/// or allocation. Throws on I/O/format errors.
template <typename Fn>
void for_each_pcap_record(const std::string& path, Fn&& fn) {
  const MmapPcapReader reader{path};
  std::map<std::uint64_t, ConnectionUnwrap> unwrap;
  const auto unwrap_for = [&unwrap](std::uint64_t id) -> ConnectionUnwrap& { return unwrap[id]; };
  PacketRecord record;
  reader.for_each([&](const PcapRecordView& view) {
    if (decode_record(view, unwrap_for, record)) fn(std::as_const(record));
  });
}

}  // namespace vstream::capture
