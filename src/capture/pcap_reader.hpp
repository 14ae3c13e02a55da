// Zero-copy pcap record access: the ingestion-side twin of the sweep engine.
//
// `MmapPcapReader` maps a capture file read-only and exposes it as a record
// cursor over the mapped bytes: no per-record heap allocation, no buffered
// stream reads, no `std::function` dispatch anywhere on the hot loop. When
// the file cannot be mapped (exotic filesystem, zero-length map denied) the
// reader falls back to one buffered read of the whole file and the cursor
// walks that buffer instead — same bytes, same API, same validation.
//
// Accepted formats: classic libpcap with any of the four global-header
// magics (microsecond / nanosecond timestamps, native or byte-swapped), link
// type Ethernet. Unknown link types and absurd lengths are rejected with a
// diagnostic error instead of being silently misparsed: a record header
// promising bytes past EOF, an `incl_len` above the file's own snaplen, or a
// snaplen beyond any sane capture throws `std::runtime_error` naming the
// file and offset.
//
// Layering: the cursor yields raw `PcapRecordView`s (timestamp + frame
// bytes). `parse_frame` decodes one Ethernet/IPv4/TCP frame into a
// `PacketRecord` with *wire* (32-bit) sequence numbers, and the unwrap
// helpers turn those into 64-bit absolute offsets — split out so the
// parallel per-connection demux (analysis/connection_demux.hpp) can keep
// unwrap state per connection lane while the serial reader keeps one map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "capture/trace.hpp"
#include "tcp/seqspace.hpp"

namespace vstream::capture {

/// One pcap record, pointing into the reader's mapped (or buffered) bytes.
/// Valid only while the owning `MmapPcapReader` is alive.
struct PcapRecordView {
  double t_s{0.0};                   ///< timestamp in seconds (µs or ns unit applied)
  const std::uint8_t* frame{nullptr};  ///< `incl_len` captured bytes
  std::uint32_t incl_len{0};
  std::uint32_t orig_len{0};         ///< original on-wire length
  std::uint64_t offset{0};           ///< file offset of this record's header
};

class MmapPcapReader {
 public:
  struct Header {
    bool swapped{false};       ///< byte-swapped magic: all header fields swapped
    bool nanos{false};         ///< nanosecond sub-second timestamps
    double subsecond_unit{1e-6};
    std::uint32_t snaplen{0};
    std::uint32_t linktype{0};
  };

  /// Open and validate the global header. Throws `std::runtime_error` on
  /// open/map failure, short file, unknown magic, unsupported link type or
  /// an absurd snaplen.
  explicit MmapPcapReader(const std::string& path);
  ~MmapPcapReader();

  MmapPcapReader(const MmapPcapReader&) = delete;
  MmapPcapReader& operator=(const MmapPcapReader&) = delete;

  [[nodiscard]] const Header& header() const { return header_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t file_bytes() const { return size_; }
  /// False when the buffered-read fallback is active.
  [[nodiscard]] bool mmapped() const { return mmapped_; }

  /// Forward record cursor. `next` returns false at clean EOF and throws on
  /// a truncated or corrupt record; views stay valid for the reader's life.
  class Cursor {
   public:
    bool next(PcapRecordView& out);
    [[nodiscard]] std::uint64_t offset() const { return offset_; }

   private:
    friend class MmapPcapReader;
    Cursor(const MmapPcapReader* reader, std::uint64_t offset)
        : reader_{reader}, offset_{offset} {}
    const MmapPcapReader* reader_;
    std::uint64_t offset_;
  };

  /// Cursor over the whole file, positioned at the first record.
  [[nodiscard]] Cursor cursor() const;

  /// Visit every record in file order. `fn` is a template parameter, so the
  /// hot loop inlines the visitor — no `std::function` dispatch.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    PcapRecordView view;
    for (Cursor c = cursor(); c.next(view);) fn(view);
  }

 private:
  /// RAII holder for the mapping so a throwing constructor still unmaps.
  struct Mapping {
    void* addr{nullptr};
    std::size_t len{0};
    ~Mapping();
  };

  [[noreturn]] void fail(std::uint64_t offset, const std::string& what) const;
  void parse_global_header();

  std::string path_;
  Mapping map_;
  std::vector<std::uint8_t> fallback_;  ///< whole-file buffer when not mmapped
  const std::uint8_t* data_{nullptr};
  std::uint64_t size_{0};
  bool mmapped_{false};
  Header header_;
};

/// A frame decoded to a `PacketRecord` whose sequence fields are still the
/// 32-bit wire values (`record.seq` / `record.ack` are unset).
struct WirePacket {
  PacketRecord record;
  tcp::WireSeq wire_seq{0};
  tcp::WireSeq wire_ack{0};
  int dir_index{0};  ///< unwrap stream of `wire_seq`: 0 = down, 1 = up
};

/// Decode one Ethernet/IPv4/TCP frame. Returns false (leaving `out`
/// unspecified) for frames that are not ours: captures shorter than the
/// header stack, or non-IPv4/TCP payloads — the skip conditions of the
/// original buffered reader, unchanged.
[[nodiscard]] bool parse_frame(const PcapRecordView& view, WirePacket& out);

/// The minimum the demux lanes need from every record: which connection
/// (and so which lane), which direction, how much payload. Skip conditions
/// match `parse_frame` exactly, so a record the probe accepts always decodes.
struct FrameProbe {
  std::uint64_t connection_id{0};
  std::uint32_t payload_bytes{0};
  bool down{false};
};

/// Cheap partial decode: reads only the IP version/protocol, source address
/// and ports — about a third of the field work of `parse_frame` — because
/// every demux lane probes every record of the file and fully decodes only
/// its own.
[[nodiscard]] bool probe_frame(const PcapRecordView& view, FrameProbe& out);

/// Per-connection sequence unwrap state: wire values are 32-bit and wrap
/// every 4 GiB per direction; unwrap against the highest absolute value seen
/// so far on each direction stream (ACKs acknowledge the opposite
/// direction's space, so the caller picks the stream index). A value that
/// would unwrap before the stream start — only a corrupt capture, or one
/// that begins mid-stream, holds one — is read one lap ahead instead, so
/// any input unwraps to a non-negative offset.
class ConnectionUnwrap {
 public:
  std::uint64_t unwrap(int dir, tcp::WireSeq wire) {
    if (!seen_[dir]) {
      seen_[dir] = true;
      reference_[dir] = wire;
      return wire;
    }
    const std::int32_t delta = tcp::seq_distance(tcp::to_wire(reference_[dir]), wire);
    const bool before_start =
        delta < 0 && static_cast<std::uint64_t>(-static_cast<std::int64_t>(delta)) > reference_[dir];
    const std::uint64_t absolute = before_start
                                       ? reference_[dir] + static_cast<std::uint32_t>(delta)
                                       : tcp::from_wire(wire, reference_[dir]);
    if (absolute > reference_[dir]) reference_[dir] = absolute;
    return absolute;
  }

 private:
  std::uint64_t reference_[2]{0, 0};
  bool seen_[2]{false, false};
};

/// Decode + unwrap one record against `unwrap_for(connection_id)`, a
/// `ConnectionUnwrap&`. Returns false for skipped frames. This is the shared
/// per-record step of every reader path — `for_each_pcap_record` and the
/// demux lanes both produce their `PacketRecord`s through it.
template <typename UnwrapFor>
[[nodiscard]] bool decode_record(const PcapRecordView& view, UnwrapFor&& unwrap_for,
                                 PacketRecord& out) {
  WirePacket w;
  if (!parse_frame(view, w)) return false;
  ConnectionUnwrap& unwrap = unwrap_for(w.record.connection_id);
  w.record.seq = unwrap.unwrap(w.dir_index, w.wire_seq);
  w.record.ack = unwrap.unwrap(1 - w.dir_index, w.wire_ack);
  out = w.record;
  return true;
}

}  // namespace vstream::capture
