// Tests for the zero-copy mmap pcap reader: magic variants (native,
// byte-swapped, nanosecond), cursor/visitor equivalence with the
// std::function path, hardened rejection of truncated and corrupt files,
// and the wire-format contract with the writer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "capture/pcap.hpp"
#include "capture/pcap_reader.hpp"
#include "capture/pcap_wire.hpp"
#include "capture/trace.hpp"

namespace {

using namespace vstream;
using namespace vstream::capture;

[[nodiscard]] std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void swap32_at(std::vector<std::uint8_t>& b, std::size_t at) {
  std::swap(b[at], b[at + 3]);
  std::swap(b[at + 1], b[at + 2]);
}

void swap16_at(std::vector<std::uint8_t>& b, std::size_t at) { std::swap(b[at], b[at + 1]); }

[[nodiscard]] std::uint32_t u32le_at(const std::vector<std::uint8_t>& b, std::size_t at) {
  return static_cast<std::uint32_t>(b[at]) | (static_cast<std::uint32_t>(b[at + 1]) << 8U) |
         (static_cast<std::uint32_t>(b[at + 2]) << 16U) |
         (static_cast<std::uint32_t>(b[at + 3]) << 24U);
}

void put_u32le_at(std::vector<std::uint8_t>& b, std::size_t at, std::uint32_t v) {
  b[at] = static_cast<std::uint8_t>(v);
  b[at + 1] = static_cast<std::uint8_t>(v >> 8U);
  b[at + 2] = static_cast<std::uint8_t>(v >> 16U);
  b[at + 3] = static_cast<std::uint8_t>(v >> 24U);
}

/// Rewrite a natively-written capture as its opposite-endian twin: every
/// global- and record-header field byte-swapped, frame bytes untouched.
[[nodiscard]] std::vector<std::uint8_t> byte_swapped_twin(std::vector<std::uint8_t> bytes) {
  swap32_at(bytes, 0);   // magic
  swap16_at(bytes, 4);   // version major
  swap16_at(bytes, 6);   // version minor
  swap32_at(bytes, 8);   // thiszone
  swap32_at(bytes, 12);  // sigfigs
  swap32_at(bytes, 16);  // snaplen
  swap32_at(bytes, 20);  // linktype
  std::size_t at = wire::kGlobalHeaderBytes;
  while (at + wire::kRecordHeaderBytes <= bytes.size()) {
    const std::uint32_t incl_len = u32le_at(bytes, at + 8);
    swap32_at(bytes, at);
    swap32_at(bytes, at + 4);
    swap32_at(bytes, at + 8);
    swap32_at(bytes, at + 12);
    at += wire::kRecordHeaderBytes + incl_len;
  }
  return bytes;
}

/// Rewrite a microsecond capture as its nanosecond twin: magic swapped to
/// the nanos variant, every sub-second field scaled by 1000.
[[nodiscard]] std::vector<std::uint8_t> nanos_twin(std::vector<std::uint8_t> bytes) {
  put_u32le_at(bytes, 0, wire::kMagicNanos);
  std::size_t at = wire::kGlobalHeaderBytes;
  while (at + wire::kRecordHeaderBytes <= bytes.size()) {
    const std::uint32_t incl_len = u32le_at(bytes, at + 8);
    put_u32le_at(bytes, at + 4, u32le_at(bytes, at + 4) * 1000U);
    at += wire::kRecordHeaderBytes + incl_len;
  }
  return bytes;
}

[[nodiscard]] PacketTrace sample_trace() {
  PacketTrace trace;
  const auto push = [&trace](double t, net::Direction d, std::uint64_t conn, std::uint64_t seq,
                             std::uint64_t ack, std::uint32_t payload, net::TcpFlag flags) {
    PacketRecord r;
    r.t_s = t;
    r.direction = d;
    r.connection_id = conn;
    r.seq = seq;
    r.ack = ack;
    r.payload_bytes = payload;
    r.window_bytes = 262144;
    r.flags = flags;
    trace.packets.push_back(r);
  };
  push(0.25, net::Direction::kUp, 1, 1, 0, 0, net::TcpFlag::kSyn);
  push(0.27, net::Direction::kDown, 1, 1, 2, 0, net::TcpFlag::kSyn | net::TcpFlag::kAck);
  push(0.28, net::Direction::kUp, 1, 2, 2, 0, net::TcpFlag::kAck);
  push(0.30, net::Direction::kDown, 1, 2, 2, 1448, net::TcpFlag::kAck);
  push(0.31, net::Direction::kDown, 1, 1450, 2, 1448, net::TcpFlag::kAck | net::TcpFlag::kPsh);
  push(0.32, net::Direction::kUp, 1, 2, 2898, 0, net::TcpFlag::kAck);
  push(0.40, net::Direction::kDown, 2, 1, 1, 900, net::TcpFlag::kAck);
  push(0.45, net::Direction::kUp, 2, 1, 901, 0, net::TcpFlag::kFin | net::TcpFlag::kAck);
  trace.duration_s = 0.45 - 0.25;
  return trace;
}

[[nodiscard]] std::vector<PacketRecord> collect(const std::string& path) {
  std::vector<PacketRecord> records;
  for_each_pcap_record(path, [&records](const PacketRecord& r) { records.push_back(r); });
  return records;
}

void expect_records_equal(const std::vector<PacketRecord>& actual,
                          const std::vector<PacketRecord>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_NEAR(actual[i].t_s, expected[i].t_s, 2e-6);
    EXPECT_EQ(actual[i].direction, expected[i].direction);
    EXPECT_EQ(actual[i].connection_id, expected[i].connection_id);
    EXPECT_EQ(actual[i].host, expected[i].host);
    EXPECT_EQ(actual[i].seq, expected[i].seq);
    EXPECT_EQ(actual[i].ack, expected[i].ack);
    EXPECT_EQ(actual[i].payload_bytes, expected[i].payload_bytes);
    EXPECT_EQ(actual[i].flags, expected[i].flags);
    EXPECT_EQ(actual[i].is_retransmission, expected[i].is_retransmission);
  }
}

class MmapPcapReaderTest : public ::testing::Test {
 protected:
  // gtest_discover_tests runs every test case as its own process, and ctest
  // may run several concurrently — the scratch paths must be per-process.
  std::string path_ =
      "/tmp/vstream_pcap_reader_test_" + std::to_string(::getpid()) + ".pcap";
  std::string twin_path_ =
      "/tmp/vstream_pcap_reader_twin_" + std::to_string(::getpid()) + ".pcap";

  void TearDown() override {
    (void)std::remove(path_.c_str());
    (void)std::remove(twin_path_.c_str());
  }
};

TEST_F(MmapPcapReaderTest, HeaderAndCursorWalkTheWholeFile) {
  const auto trace = sample_trace();
  write_pcap(trace, path_);

  const MmapPcapReader reader{path_};
  EXPECT_FALSE(reader.header().swapped);
  EXPECT_FALSE(reader.header().nanos);
  EXPECT_EQ(reader.header().snaplen, 65535U);
  EXPECT_EQ(reader.header().linktype, wire::kLinkTypeEthernet);
  EXPECT_TRUE(reader.mmapped());

  std::size_t count = 0;
  reader.for_each([&](const PcapRecordView& view) {
    ++count;
    EXPECT_EQ(view.incl_len, wire::kHeadersBytes);
  });
  EXPECT_EQ(count, trace.packets.size());
}

TEST_F(MmapPcapReaderTest, TemplatedAndFunctionOverloadsAgree) {
  write_pcap(sample_trace(), path_);
  std::vector<PacketRecord> via_template;
  for_each_pcap_record(path_, [&via_template](const PacketRecord& r) {
    via_template.push_back(r);
  });
  std::vector<PacketRecord> via_function;
  const std::function<void(const PacketRecord&)> fn = [&via_function](const PacketRecord& r) {
    via_function.push_back(r);
  };
  for_each_pcap_record(path_, fn);
  expect_records_equal(via_function, via_template);
}

TEST_F(MmapPcapReaderTest, ByteSwappedMagicReadsIdentically) {
  const auto trace = sample_trace();
  write_pcap(trace, path_);
  spit(twin_path_, byte_swapped_twin(slurp(path_)));

  const MmapPcapReader reader{twin_path_};
  EXPECT_TRUE(reader.header().swapped);
  EXPECT_FALSE(reader.header().nanos);
  EXPECT_EQ(reader.header().snaplen, 65535U);
  expect_records_equal(collect(twin_path_), collect(path_));
}

TEST_F(MmapPcapReaderTest, NanosecondMagicScalesTimestamps) {
  const auto trace = sample_trace();
  write_pcap(trace, path_);
  spit(twin_path_, nanos_twin(slurp(path_)));

  const MmapPcapReader reader{twin_path_};
  EXPECT_TRUE(reader.header().nanos);
  EXPECT_FALSE(reader.header().swapped);
  expect_records_equal(collect(twin_path_), collect(path_));
}

TEST_F(MmapPcapReaderTest, ByteSwappedNanosecondCombination) {
  write_pcap(sample_trace(), path_);
  spit(twin_path_, byte_swapped_twin(nanos_twin(slurp(path_))));

  const MmapPcapReader reader{twin_path_};
  EXPECT_TRUE(reader.header().swapped);
  EXPECT_TRUE(reader.header().nanos);
  expect_records_equal(collect(twin_path_), collect(path_));
}

TEST_F(MmapPcapReaderTest, SequenceNumbersUnwrapAcrossFourGiB) {
  PacketTrace trace;
  PacketRecord r;
  r.direction = net::Direction::kDown;
  r.connection_id = 1;
  r.payload_bytes = 1000;
  r.window_bytes = 262144;
  r.flags = net::TcpFlag::kAck;
  r.t_s = 1.0;
  r.seq = 0xFFFFFE00ULL;  // just below the 32-bit wrap
  r.ack = 10;
  trace.packets.push_back(r);
  r.t_s = 2.0;
  r.seq = 0x100000200ULL;  // past it
  trace.packets.push_back(r);
  write_pcap(trace, path_);

  const auto records = collect(path_);
  ASSERT_EQ(records.size(), 2U);
  EXPECT_EQ(records[0].seq, 0xFFFFFE00ULL);
  EXPECT_EQ(records[1].seq, 0x100000200ULL);
}

TEST(ConnectionUnwrapTest, ValueBeforeTheStreamStartIsReadOneLapAhead) {
  // 0xFFFFFFF0 sits 26 bytes behind a stream first seen at 10: unwrapped
  // backwards it would precede the stream start, so it is read forwards,
  // and later values unwrap against it as usual.
  ConnectionUnwrap unwrap;
  EXPECT_EQ(unwrap.unwrap(0, 10U), 10U);
  EXPECT_EQ(unwrap.unwrap(0, 0xFFFFFFF0U), 0xFFFFFFF0ULL);
  EXPECT_EQ(unwrap.unwrap(0, 0x20U), 0x100000020ULL);
  // A value behind by less than the stream's span still unwraps backwards.
  EXPECT_EQ(unwrap.unwrap(0, 0x10U), 0x100000010ULL);
  // The other direction's stream is independent.
  EXPECT_EQ(unwrap.unwrap(1, 5U), 5U);
}

TEST_F(MmapPcapReaderTest, EmptyCaptureYieldsNoRecords) {
  PcapWriter writer{path_};
  writer.close();
  EXPECT_EQ(writer.records_written(), 0U);

  const MmapPcapReader reader{path_};
  std::size_t count = 0;
  reader.for_each([&count](const PcapRecordView&) { ++count; });
  EXPECT_EQ(count, 0U);
  EXPECT_TRUE(read_pcap(path_).packets.empty());
}

TEST_F(MmapPcapReaderTest, StreamingWriterMatchesBatchWriterBytes) {
  const auto trace = sample_trace();
  write_pcap(trace, path_);
  {
    PcapWriter writer{twin_path_};
    for (const auto& p : trace.packets) writer.add(p);
    writer.close();
    EXPECT_EQ(writer.records_written(), trace.packets.size());
  }
  EXPECT_EQ(slurp(twin_path_), slurp(path_));
}

TEST_F(MmapPcapReaderTest, RejectsZeroLengthAndShortFiles) {
  spit(path_, {});
  EXPECT_THROW((void)MmapPcapReader{path_}, std::runtime_error);
  spit(path_, std::vector<std::uint8_t>(10, 0x41));
  EXPECT_THROW((void)MmapPcapReader{path_}, std::runtime_error);
}

TEST_F(MmapPcapReaderTest, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes(wire::kGlobalHeaderBytes, 0);
  put_u32le_at(bytes, 0, 0xDEADBEEF);
  spit(path_, bytes);
  try {
    const MmapPcapReader reader{path_};
    FAIL() << "bad magic was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("bad magic"), std::string::npos);
  }
}

TEST_F(MmapPcapReaderTest, RejectsUnknownLinkTypeWithClearError) {
  write_pcap(sample_trace(), path_);
  auto bytes = slurp(path_);
  put_u32le_at(bytes, 20, 101);  // LINKTYPE_RAW, not Ethernet
  spit(path_, bytes);
  try {
    const MmapPcapReader reader{path_};
    FAIL() << "unknown link type was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("link type 101"), std::string::npos) << what;
    EXPECT_NE(what.find("Ethernet"), std::string::npos) << what;
  }
}

TEST_F(MmapPcapReaderTest, RejectsAbsurdSnaplen) {
  write_pcap(sample_trace(), path_);
  auto bytes = slurp(path_);
  put_u32le_at(bytes, 16, 0x7FFFFFFFU);
  spit(path_, bytes);
  try {
    const MmapPcapReader reader{path_};
    FAIL() << "absurd snaplen was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("snaplen"), std::string::npos);
  }
}

TEST_F(MmapPcapReaderTest, RejectsTruncatedRecordHeader) {
  write_pcap(sample_trace(), path_);
  auto bytes = slurp(path_);
  bytes.resize(wire::kGlobalHeaderBytes + 8);  // half a record header
  spit(path_, bytes);
  EXPECT_THROW(collect(path_), std::runtime_error);
}

TEST_F(MmapPcapReaderTest, RejectsRecordPromisingBytesPastEof) {
  write_pcap(sample_trace(), path_);
  auto bytes = slurp(path_);
  // First record claims 4000 captured bytes; the file ends long before.
  put_u32le_at(bytes, wire::kGlobalHeaderBytes + 8, 4000);
  bytes.resize(wire::kGlobalHeaderBytes + wire::kRecordHeaderBytes + 54);
  spit(path_, bytes);
  try {
    (void)collect(path_);
    FAIL() << "record past EOF was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("past end of file"), std::string::npos);
  }
}

TEST_F(MmapPcapReaderTest, RejectsRecordLengthAboveSnaplen) {
  write_pcap(sample_trace(), path_);
  auto bytes = slurp(path_);
  put_u32le_at(bytes, wire::kGlobalHeaderBytes + 8, 100000);  // > snaplen 65535
  spit(path_, bytes);
  try {
    (void)collect(path_);
    FAIL() << "record length above snaplen was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("absurd record length"), std::string::npos);
  }
}

TEST_F(MmapPcapReaderTest, ErrorsNameFileAndOffset) {
  write_pcap(sample_trace(), path_);
  auto bytes = slurp(path_);
  bytes.resize(wire::kGlobalHeaderBytes + 8);
  spit(path_, bytes);
  try {
    (void)collect(path_);
    FAIL() << "truncation was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path_), std::string::npos) << what;
    EXPECT_NE(what.find("@24"), std::string::npos) << what;
  }
}

TEST_F(MmapPcapReaderTest, ShortAndForeignFramesAreSkippedNotFatal) {
  write_pcap(sample_trace(), path_);
  auto bytes = slurp(path_);
  // Shrink the first record's frame claim to 4 bytes: still a valid record
  // (the cursor advances by incl_len), just not one of ours.
  const std::size_t first = wire::kGlobalHeaderBytes;
  put_u32le_at(bytes, first + 8, 4);
  // Drop the other 50 frame bytes so the next record header lines up.
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(first + wire::kRecordHeaderBytes + 4),
              bytes.begin() +
                  static_cast<std::ptrdiff_t>(first + wire::kRecordHeaderBytes +
                                              wire::kHeadersBytes));
  spit(path_, bytes);
  const auto records = collect(path_);
  EXPECT_EQ(records.size(), sample_trace().packets.size() - 1);
}

}  // namespace
