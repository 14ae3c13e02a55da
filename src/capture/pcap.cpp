#include "capture/pcap.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "capture/pcap_wire.hpp"

namespace vstream::capture {
namespace {

using namespace wire;

/// One serialized record: 16-byte pcap record header + headers-only frame.
constexpr std::size_t kRecordBytes = kRecordHeaderBytes + kHeadersBytes;

/// Serialise one record into `out` (record header + Ethernet/IPv4/TCP
/// frame). Shared by the streaming writer and, through it, `write_pcap`.
void encode_record(const PacketRecord& p, std::array<std::uint8_t, kRecordBytes>& out) {
  out.fill(0);
  const auto ts_sec = static_cast<std::uint32_t>(p.t_s);
  const auto ts_usec = static_cast<std::uint32_t>((p.t_s - ts_sec) * 1e6);
  const auto orig_len = static_cast<std::uint32_t>(kHeadersBytes + p.payload_bytes);
  put_u32le(out.data() + 0, ts_sec);
  put_u32le(out.data() + 4, ts_usec);
  put_u32le(out.data() + 8, std::uint32_t{kHeadersBytes});  // incl_len: headers only
  put_u32le(out.data() + 12, orig_len);

  std::uint8_t* eth = out.data() + kRecordHeaderBytes;
  // MACs: 02:00:00:00:00:01 / 02:00:00:00:00:02, EtherType IPv4.
  eth[0] = 0x02;
  eth[5] = 0x01;
  eth[6] = 0x02;
  eth[11] = 0x02;
  put_u16be(eth + 12, 0x0800);

  const bool down = p.direction == net::Direction::kDown;
  std::uint8_t* ip = eth + kEthernetBytes;
  ip[0] = 0x45;  // v4, IHL 5
  put_u16be(ip + 2, static_cast<std::uint16_t>(
                        std::min<std::uint64_t>(kIpv4Bytes + kTcpBytes + p.payload_bytes,
                                                65535)));  // total length
  put_u16be(ip + 4, p.is_retransmission ? 1 : 0);          // IP ID carries retx flag
  ip[8] = 64;                                              // TTL
  ip[9] = 6;                                               // protocol TCP
  // Server address encodes the host tag: 10.0.0.(1 + host).
  const std::uint32_t server_ip = kServerIp + p.host;
  put_u32be(ip + 12, down ? server_ip : kClientIp);
  put_u32be(ip + 16, down ? kClientIp : server_ip);

  const auto client_port =
      static_cast<std::uint16_t>(kClientPortBase + (p.connection_id & 0xFFFFU));
  std::uint8_t* tcp = ip + kIpv4Bytes;
  put_u16be(tcp + 0, down ? kServerPort : client_port);
  put_u16be(tcp + 2, down ? client_port : kServerPort);
  put_u32be(tcp + 4, tcp::to_wire(p.seq));
  put_u32be(tcp + 8, tcp::to_wire(p.ack));
  tcp[12] = 5U << 4U;  // data offset 5 words
  tcp[13] = tcp_flag_bits(p.flags);
  const std::uint64_t scaled = p.window_bytes >> kWindowShift;
  put_u16be(tcp + 14, static_cast<std::uint16_t>(std::min<std::uint64_t>(scaled, 65535)));
}

}  // namespace

PcapWriter::PcapWriter(const std::string& path)
    : stream_buffer_(std::size_t{1} << 20U), path_{path} {
  out_.rdbuf()->pubsetbuf(stream_buffer_.data(),
                          static_cast<std::streamsize>(stream_buffer_.size()));
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) throw std::runtime_error{"write_pcap: cannot open " + path};

  std::array<std::uint8_t, kGlobalHeaderBytes> header{};
  put_u32le(header.data() + 0, kMagicMicros);
  put_u16le(header.data() + 4, 2);       // version major
  put_u16le(header.data() + 6, 4);       // version minor
  put_u32le(header.data() + 8, 0);       // thiszone
  put_u32le(header.data() + 12, 0);      // sigfigs
  put_u32le(header.data() + 16, 65535);  // snaplen
  put_u32le(header.data() + 20, kLinkTypeEthernet);
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
}

void PcapWriter::add(const PacketRecord& record) {
  std::array<std::uint8_t, kRecordBytes> bytes{};
  encode_record(record, bytes);
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  ++records_;
}

void PcapWriter::close() {
  out_.flush();
  if (!out_) throw std::runtime_error{"write_pcap: write failed for " + path_};
  out_.close();
}

void write_pcap(const PacketTrace& trace, const std::string& path) {
  PcapWriter writer{path};
  for (const auto& p : trace.packets) writer.add(p);
  writer.close();
}

PacketTrace read_pcap(const std::string& path) {
  PacketTrace trace;
  for_each_pcap_record(path, [&trace](const PacketRecord& r) { trace.packets.push_back(r); });
  if (!trace.packets.empty()) {
    trace.duration_s = trace.packets.back().t_s - trace.packets.front().t_s;
  }
  return trace;
}

}  // namespace vstream::capture
