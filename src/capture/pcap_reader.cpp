#include "capture/pcap_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <stdexcept>

#include "capture/pcap_wire.hpp"

namespace vstream::capture {

MmapPcapReader::Mapping::~Mapping() {
  if (addr != nullptr) ::munmap(addr, len);
}

MmapPcapReader::MmapPcapReader(const std::string& path) : path_{path} {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error{"pcap: cannot open " + path};
  struct ::stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw std::runtime_error{"pcap: cannot stat " + path};
  }
  size_ = static_cast<std::uint64_t>(st.st_size);

  if (size_ > 0) {
    void* mapped = ::mmap(nullptr, static_cast<std::size_t>(size_), PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapped != MAP_FAILED) {
      map_.addr = mapped;
      map_.len = static_cast<std::size_t>(size_);
      data_ = static_cast<const std::uint8_t*>(mapped);
      mmapped_ = true;
      // Prefetch hint only; a failure changes nothing about correctness.
      (void)::madvise(mapped, map_.len, MADV_WILLNEED);
    }
  }
  ::close(fd);

  if (!mmapped_ && size_ > 0) {
    // Buffered fallback: one read of the whole file. Rare (mmap on a
    // regular file essentially always succeeds) but keeps the cursor API
    // total on filesystems that refuse mappings.
    fallback_.resize(size_);
    std::ifstream in{path, std::ios::binary};
    if (!in.read(reinterpret_cast<char*>(fallback_.data()),
                 static_cast<std::streamsize>(size_))) {
      throw std::runtime_error{"pcap: cannot read " + path};
    }
    data_ = fallback_.data();
  }

  parse_global_header();
}

MmapPcapReader::~MmapPcapReader() = default;

void MmapPcapReader::fail(std::uint64_t offset, const std::string& what) const {
  throw std::runtime_error{"pcap: " + path_ + " @" + std::to_string(offset) + ": " + what};
}

void MmapPcapReader::parse_global_header() {
  if (size_ < wire::kGlobalHeaderBytes) fail(0, "truncated global header");
  const std::uint32_t raw_magic = wire::get_u32le(data_, false);
  switch (raw_magic) {
    case wire::kMagicMicros:
      break;
    case wire::kMagicNanos:
      header_.nanos = true;
      break;
    case wire::kMagicMicrosSwapped:
      header_.swapped = true;
      break;
    case wire::kMagicNanosSwapped:
      header_.swapped = true;
      header_.nanos = true;
      break;
    default:
      fail(0, "bad magic");
  }
  header_.subsecond_unit = header_.nanos ? 1e-9 : 1e-6;
  header_.snaplen = wire::get_u32le(data_ + 16, header_.swapped);
  header_.linktype = wire::get_u32le(data_ + 20, header_.swapped);
  if (header_.snaplen > wire::kMaxSaneCaptureLen) {
    fail(16, "absurd snaplen " + std::to_string(header_.snaplen));
  }
  if (header_.linktype != wire::kLinkTypeEthernet) {
    fail(20, "unsupported link type " + std::to_string(header_.linktype) +
                 " (only Ethernet/1 is supported)");
  }
}

MmapPcapReader::Cursor MmapPcapReader::cursor() const {
  return Cursor{this, wire::kGlobalHeaderBytes};
}

bool MmapPcapReader::Cursor::next(PcapRecordView& out) {
  const MmapPcapReader& r = *reader_;
  if (offset_ >= r.size_) return false;  // clean EOF
  if (r.size_ - offset_ < wire::kRecordHeaderBytes) {
    r.fail(offset_, "truncated record header");
  }
  const std::uint8_t* h = r.data_ + offset_;
  const bool swapped = r.header_.swapped;
  const std::uint32_t ts_sec = wire::get_u32le(h, swapped);
  const std::uint32_t ts_frac = wire::get_u32le(h + 4, swapped);
  const std::uint32_t incl_len = wire::get_u32le(h + 8, swapped);
  const std::uint32_t orig_len = wire::get_u32le(h + 12, swapped);
  if (incl_len > wire::kMaxSaneCaptureLen ||
      (r.header_.snaplen != 0 && incl_len > r.header_.snaplen)) {
    r.fail(offset_, "absurd record length " + std::to_string(incl_len) + " (snaplen " +
                        std::to_string(r.header_.snaplen) + ")");
  }
  if (incl_len > r.size_ - offset_ - wire::kRecordHeaderBytes) {
    r.fail(offset_, "record promises " + std::to_string(incl_len) +
                        " bytes past end of file (file is " + std::to_string(r.size_) +
                        " bytes)");
  }
  out.t_s = static_cast<double>(ts_sec) +
            static_cast<double>(ts_frac) * r.header_.subsecond_unit;
  out.frame = h + wire::kRecordHeaderBytes;
  out.incl_len = incl_len;
  out.orig_len = orig_len;
  out.offset = offset_;
  offset_ += wire::kRecordHeaderBytes + incl_len;
  return true;
}

bool parse_frame(const PcapRecordView& view, WirePacket& out) {
  using namespace wire;
  if (view.incl_len < kHeadersBytes) return false;  // not one of ours; skip
  const std::uint8_t* ip = view.frame + kEthernetBytes;
  if ((ip[0] >> 4U) != 4 || ip[9] != 6) return false;  // non-IPv4/TCP

  const std::uint8_t* tcp = view.frame + kEthernetBytes + kIpv4Bytes;
  PacketRecord& r = out.record;
  r = PacketRecord{};
  r.t_s = view.t_s;
  const std::uint32_t src_ip = get_u32be(ip + 12);
  const std::uint32_t dst_ip = get_u32be(ip + 16);
  const auto in_server_net = [](std::uint32_t addr) {
    return (addr & 0xFFFFFF00U) == (kServerIp & 0xFFFFFF00U);
  };
  r.direction = in_server_net(src_ip) ? net::Direction::kDown : net::Direction::kUp;
  const std::uint32_t server_addr = in_server_net(src_ip) ? src_ip : dst_ip;
  if (in_server_net(server_addr) && server_addr >= kServerIp) {
    r.host = static_cast<std::uint8_t>(server_addr - kServerIp);
  }
  const std::uint16_t src_port = get_u16be(tcp + 0);
  const std::uint16_t dst_port = get_u16be(tcp + 2);
  const std::uint16_t client_port = (r.direction == net::Direction::kDown) ? dst_port : src_port;
  r.connection_id = client_port >= kClientPortBase ? client_port - kClientPortBase : 0;
  out.dir_index = r.direction == net::Direction::kDown ? 0 : 1;
  out.wire_seq = get_u32be(tcp + 4);
  out.wire_ack = get_u32be(tcp + 8);
  r.flags = tcp_flags_from_bits(tcp[13]);
  r.window_bytes = static_cast<std::uint64_t>(get_u16be(tcp + 14)) << kWindowShift;
  r.is_retransmission = get_u16be(ip + 4) == 1;
  r.payload_bytes = view.orig_len >= kHeadersBytes
                        ? static_cast<std::uint32_t>(view.orig_len - kHeadersBytes)
                        : 0;
  return true;
}

bool probe_frame(const PcapRecordView& view, FrameProbe& out) {
  using namespace wire;
  if (view.incl_len < kHeadersBytes) return false;  // not one of ours; skip
  const std::uint8_t* ip = view.frame + kEthernetBytes;
  if ((ip[0] >> 4U) != 4 || ip[9] != 6) return false;  // non-IPv4/TCP

  const std::uint8_t* tcp = view.frame + kEthernetBytes + kIpv4Bytes;
  const std::uint32_t src_ip = get_u32be(ip + 12);
  out.down = (src_ip & 0xFFFFFF00U) == (kServerIp & 0xFFFFFF00U);
  const std::uint16_t client_port = get_u16be(tcp + (out.down ? 2 : 0));
  out.connection_id = client_port >= kClientPortBase ? client_port - kClientPortBase : 0;
  out.payload_bytes = view.orig_len >= kHeadersBytes
                          ? static_cast<std::uint32_t>(view.orig_len - kHeadersBytes)
                          : 0;
  return true;
}

}  // namespace vstream::capture
