// Seeded hostile-byte exploration of the capture classifier.
//
// A small synthetic capture is mutated a few hundred times with `sim::Rng`:
// byte and bit flips in the global header, record headers and frames,
// length-field and timestamp edits, and truncations. Every mutant goes
// through `MmapPcapReader` and the per-connection demux, serially and on
// 1, 2 and 4 workers. Each one must either classify identically at every
// job count, or be rejected with the same message at every job count, and
// a rejection must be the reader's diagnostic naming the file and offset.
// Run under ASan+UBSan (the sanitize CI job), this also proves no mutant
// reads out of bounds or trips undefined behaviour.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/connection_demux.hpp"
#include "analysis/parallel_classify.hpp"
#include "capture/pcap_reader.hpp"
#include "capture/pcap_wire.hpp"
#include "capture/synthetic.hpp"
#include "runner/parallel_sweep.hpp"
#include "sim/rng.hpp"

namespace {

using namespace vstream;
namespace wire = capture::wire;
using Bytes = std::vector<std::uint8_t>;

enum class Mutation {
  kGlobalHeaderByte,
  kGlobalHeaderBit,
  kRecordHeaderByte,
  kRecordHeaderBit,
  kFrameByte,
  kFrameBit,
  kLengthField,
  kTimestamp,
  kTruncation,
};

constexpr std::array kMutations{
    Mutation::kGlobalHeaderByte, Mutation::kGlobalHeaderBit, Mutation::kRecordHeaderByte,
    Mutation::kRecordHeaderBit,  Mutation::kFrameByte,       Mutation::kFrameBit,
    Mutation::kLengthField,      Mutation::kTimestamp,       Mutation::kTruncation,
};

const char* name_of(Mutation m) {
  switch (m) {
    case Mutation::kGlobalHeaderByte: return "GlobalHeaderByte";
    case Mutation::kGlobalHeaderBit: return "GlobalHeaderBit";
    case Mutation::kRecordHeaderByte: return "RecordHeaderByte";
    case Mutation::kRecordHeaderBit: return "RecordHeaderBit";
    case Mutation::kFrameByte: return "FrameByte";
    case Mutation::kFrameBit: return "FrameBit";
    case Mutation::kLengthField: return "LengthField";
    case Mutation::kTimestamp: return "Timestamp";
    case Mutation::kTruncation: return "Truncation";
  }
  return "Unknown";
}

// Listed test names and parameter values print the class name, never raw
// bytes.
void PrintTo(Mutation m, std::ostream* os) { *os << name_of(m); }

constexpr int kMutantsPerClass = 40;

/// One record of the clean capture: where its header starts, how long its
/// frame is.
struct RecordSpan {
  std::size_t offset{0};
  std::uint32_t incl_len{0};
};

class HostilePcapTest : public ::testing::TestWithParam<Mutation> {
 protected:
  static void SetUpTestSuite() {
    capture::SyntheticCaptureOptions gen;
    gen.connections = 4;
    gen.target_file_bytes = 48ULL << 10U;
    capture::write_synthetic_capture(clean_path_, gen);
    std::ifstream in{clean_path_, std::ios::binary};
    clean_.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});

    const capture::MmapPcapReader reader{clean_path_};
    reader.for_each([](const capture::PcapRecordView& view) {
      records_.push_back(RecordSpan{static_cast<std::size_t>(view.offset), view.incl_len});
    });
    (void)std::remove(clean_path_.c_str());
  }

  /// Apply one mutation of class `m` to a copy of the clean capture.
  static Bytes mutate(Mutation m, sim::Rng& rng) {
    Bytes bytes = clean_;
    const auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    const auto nonzero_byte = [&rng] {
      return static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    };
    const auto bit = [&rng] { return static_cast<std::uint8_t>(1U << rng.uniform_int(0, 7)); };
    const RecordSpan& record = records_[pick(records_.size())];
    switch (m) {
      case Mutation::kGlobalHeaderByte:
        bytes[pick(wire::kGlobalHeaderBytes)] ^= nonzero_byte();
        break;
      case Mutation::kGlobalHeaderBit:
        bytes[pick(wire::kGlobalHeaderBytes)] ^= bit();
        break;
      case Mutation::kRecordHeaderByte:
        bytes[record.offset + pick(wire::kRecordHeaderBytes)] ^= nonzero_byte();
        break;
      case Mutation::kRecordHeaderBit:
        bytes[record.offset + pick(wire::kRecordHeaderBytes)] ^= bit();
        break;
      case Mutation::kFrameByte:
        bytes[record.offset + wire::kRecordHeaderBytes + pick(record.incl_len)] ^=
            nonzero_byte();
        break;
      case Mutation::kFrameBit:
        bytes[record.offset + wire::kRecordHeaderBytes + pick(record.incl_len)] ^= bit();
        break;
      case Mutation::kLengthField: {
        // incl_len (+8) or orig_len (+12), set to a boundary or random value.
        const std::array<std::uint32_t, 12> values{
            0U,
            1U,
            static_cast<std::uint32_t>(wire::kHeadersBytes - 1),
            static_cast<std::uint32_t>(wire::kHeadersBytes + 1),
            record.incl_len + 1,
            65535U,
            65536U,
            wire::kMaxSaneCaptureLen,
            wire::kMaxSaneCaptureLen + 1,
            0xFFFFFFFFU,
            static_cast<std::uint32_t>(bytes.size()),
            static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFFLL)),
        };
        const std::size_t field = record.offset + (rng.bernoulli(0.5) ? 8 : 12);
        wire::put_u32le(bytes.data() + field, values[pick(values.size())]);
        break;
      }
      case Mutation::kTimestamp: {
        // ts_sec (+0) or the sub-second field (+4), set to an extreme or
        // random value: time running backwards, far ahead, or a sub-second
        // count past one second.
        const std::array<std::uint32_t, 6> values{
            0U, 1U, 0x20000000U, 0xFFFFFFFFU, 999999999U,
            static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFFLL)),
        };
        const std::size_t field = record.offset + (rng.bernoulli(0.5) ? 0 : 4);
        wire::put_u32le(bytes.data() + field, values[pick(values.size())]);
        break;
      }
      case Mutation::kTruncation:
        bytes.resize(pick(bytes.size()));
        break;
    }
    return bytes;
  }

  static inline std::string clean_path_ =
      "/tmp/vstream_hostile_pcap_clean_" + std::to_string(::getpid()) + ".pcap";
  static inline Bytes clean_;
  static inline std::vector<RecordSpan> records_;
};

/// The classification at one job count (0 = the serial reference), or the
/// message it was rejected with.
struct Outcome {
  std::optional<analysis::CaptureClassification> classification;
  std::string error;
};

Outcome classify(const std::string& path, std::size_t jobs) {
  Outcome out;
  try {
    const capture::MmapPcapReader reader{path};
    if (jobs == 0) {
      out.classification = analysis::classify_capture_serial(reader);
    } else {
      const runner::ParallelSweep pool{jobs};
      out.classification = analysis::classify_capture(reader, pool);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// True for the reader's diagnostic: "pcap: <path> @<offset>: <what>".
bool names_file_and_offset(const std::string& message, const std::string& path) {
  const std::string prefix = "pcap: " + path + " @";
  if (message.rfind(prefix, 0) != 0) return false;
  const std::size_t digits_end = message.find_first_not_of("0123456789", prefix.size());
  return digits_end > prefix.size() && digits_end != std::string::npos &&
         message.compare(digits_end, 2, ": ") == 0 && message.size() > digits_end + 2;
}

TEST_P(HostilePcapTest, EveryMutantClassifiesOrIsRejectedAlikeAtEveryJobCount) {
  const Mutation m = GetParam();
  sim::Rng rng{2011 + static_cast<std::uint64_t>(m)};
  const std::string path =
      "/tmp/vstream_hostile_pcap_" + std::to_string(::getpid()) + "_" + name_of(m) + ".pcap";
  int rejected = 0;
  for (int i = 0; i < kMutantsPerClass; ++i) {
    SCOPED_TRACE(i);
    const Bytes bytes = mutate(m, rng);
    std::ofstream{path, std::ios::binary | std::ios::trunc}.write(
        reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));

    const Outcome reference = classify(path, 0);
    if (!reference.classification.has_value()) {
      ++rejected;
      EXPECT_TRUE(names_file_and_offset(reference.error, path)) << reference.error;
    }
    for (const std::size_t jobs : {1U, 2U, 4U}) {
      SCOPED_TRACE(jobs);
      const Outcome got = classify(path, jobs);
      EXPECT_EQ(got.error, reference.error);
      EXPECT_EQ(got.classification.has_value(), reference.classification.has_value());
      if (got.classification.has_value() && reference.classification.has_value()) {
        EXPECT_EQ(got.classification->to_json(), reference.classification->to_json());
        EXPECT_TRUE(*got.classification == *reference.classification);
      }
    }
  }
  (void)std::remove(path.c_str());
  // Truncations and absurd lengths must reach the reader's rejections;
  // frame edits must reach the classifier. Neither side may be vacuous.
  if (m == Mutation::kTruncation || m == Mutation::kLengthField) {
    EXPECT_GT(rejected, 0);
  }
  if (m == Mutation::kFrameByte || m == Mutation::kFrameBit) {
    EXPECT_LT(rejected, kMutantsPerClass);
  }
}

INSTANTIATE_TEST_SUITE_P(Mutations, HostilePcapTest, ::testing::ValuesIn(kMutations),
                         [](const ::testing::TestParamInfo<Mutation>& info) {
                           return std::string{name_of(info.param)};
                         });

}  // namespace
