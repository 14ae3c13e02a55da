// The obs/json codec: the escaping table, number formats and null, the
// object and array writers, and the strict field reader every JSON
// consumer in the tree goes through.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "obs/json.hpp"

namespace vstream::obs::json {
namespace {

/// The text of one value, cut out of the `{"v":...}` object it is written in.
std::string value_text(const std::string& object) { return object.substr(5, object.size() - 6); }

std::string escaped(std::string_view s) { return value_text(Object{}.string("v", s).close()); }

std::string printed(std::optional<double> v, Format format) {
  return value_text(Object{}.number("v", v, format).close());
}

TEST(JsonCodecTest, EscapesSpecials) {
  EXPECT_EQ(escaped("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(escaped("plain"), "\"plain\"");
  EXPECT_EQ(escaped(std::string{"x\x01y"}), "\"x\\u0001y\"");
  EXPECT_EQ(escaped("\r\t"), "\"\\r\\t\"");
  // Every other control byte is \u00XX; 0x7f and high bytes pass through.
  EXPECT_EQ(escaped(std::string{"\0\x08\x0c\x1f", 4}), "\"\\u0000\\u0008\\u000c\\u001f\"");
  EXPECT_EQ(escaped("\x7f\xc3\xa9/"), "\"\x7f\xc3\xa9/\"");
}

TEST(JsonCodecTest, NonFiniteIsNullAtEveryPrecision) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Format format : {Format{3, true}, Format{6, true}, Format{6}, Format{9},
                              Format{10}, Format{17}}) {
    SCOPED_TRACE(format.digits);
    EXPECT_EQ(printed(nan, format), "null");
    EXPECT_EQ(printed(inf, format), "null");
    EXPECT_EQ(printed(-inf, format), "null");
    EXPECT_EQ(printed(std::nullopt, format), "null");
  }
}

TEST(JsonCodecTest, NumbersKeepTheirCallSitePrecision) {
  EXPECT_EQ(printed(0.1, Format{17}), "0.10000000000000001");
  EXPECT_EQ(printed(1.0 / 3.0, Format{6}), "0.333333");
  EXPECT_EQ(printed(1.0 / 3.0, Format{9}), "0.333333333");
  EXPECT_EQ(printed(1234567.0, Format{6}), "1.23457e+06");
  EXPECT_EQ(printed(2.5, Format{3, true}), "2.500");
  EXPECT_EQ(printed(-0.25, Format{6, true}), "-0.250000");
  // A fixed form wider than any short buffer is written whole.
  const std::string wide = printed(1e300, Format{3, true});
  EXPECT_EQ(wide.size(), 305U);
  EXPECT_EQ(wide.substr(0, 4), "1000");
  EXPECT_EQ(wide.substr(301), ".000");
}

TEST(JsonCodecTest, ObjectsAndArraysWriteInCallOrder) {
  EXPECT_EQ(Object{}.close(), "{}");
  EXPECT_EQ(Array{}.close(), "[]");
  const std::string text =
      Object{}
          .string("k\"", "v")
          .integer("n", std::numeric_limits<std::uint64_t>::max())
          .number("x", 1.5, Format{6})
          .number("absent", std::nullopt, Format{6})
          .boolean("yes", true)
          .boolean("unknown", std::nullopt)
          .digest("digest", 0xdeadbeefULL)
          .raw("list", Array{}.integer(1).number(0.5, Format{3}).raw("{}").close())
          .close();
  EXPECT_EQ(text,
            "{\"k\\\"\":\"v\",\"n\":18446744073709551615,\"x\":1.5,\"absent\":null,"
            "\"yes\":true,\"unknown\":null,\"digest\":\"00000000deadbeef\","
            "\"list\":[1,0.5,{}]}");
}

TEST(JsonCodecTest, UnsignedFieldsTakeNoSignNoOverflowAndNoTrailingText) {
  const auto u64 = [](const std::string& value) {
    std::uint64_t out = 7;
    const Field field = read("{\"v\":" + value + "}", "v", out);
    return field == Field::kOk ? std::optional<std::uint64_t>{out} : std::nullopt;
  };
  EXPECT_EQ(u64("0"), 0U);
  EXPECT_EQ(u64("18446744073709551615"), std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"-1", "+1", "18446744073709551616", "1e30", "1.5", "12abc", "0x10",
                          "\"5\"", "", " 5", "true"}) {
    EXPECT_EQ(u64(bad), std::nullopt) << bad;
  }
}

TEST(JsonCodecTest, DoubleFieldsMustBeFinite) {
  double v = 0.0;
  EXPECT_EQ(read(R"({"v":-2.5e-3})", "v", v), Field::kOk);
  EXPECT_DOUBLE_EQ(v, -2.5e-3);
  EXPECT_EQ(read(R"({"v":1e30,"w":1})", "v", v), Field::kOk);
  EXPECT_DOUBLE_EQ(v, 1e30);
  for (const char* bad : {R"({"v":nan})", R"({"v":inf})", R"({"v":-inf})", R"({"v":1e999})",
                          R"({"v":1.5x})", R"({"v":"1"})"}) {
    EXPECT_EQ(read(bad, "v", v), Field::kInvalid) << bad;
  }
}

TEST(JsonCodecTest, DigestIsAHexString) {
  const std::string text = Object{}.digest("d", 0x0123456789abcdefULL).close();
  EXPECT_EQ(text, "{\"d\":\"0123456789abcdef\"}");
  std::uint64_t d = 0;
  ASSERT_EQ(read_digest(text, "d", d), Field::kOk);
  EXPECT_EQ(d, 0x0123456789abcdefULL);
  for (const char* bad : {R"({"d":0123})", R"({"d":"-000000000000001"})", R"({"d":"12xz"})",
                          R"({"d":"12)", R"({"d":"10000000000000000"})"}) {
    EXPECT_EQ(read_digest(bad, "d", d), Field::kInvalid) << bad;
  }
}

TEST(JsonCodecTest, MissingKeysAndNullReadAsMissing) {
  std::uint64_t u = 5;
  double x = 5.0;
  std::uint64_t d = 5;
  const std::string text = R"({"a":1,"n":null,"s":"v","nullish":nullx})";
  EXPECT_EQ(read(text, "absent", u), Field::kMissing);
  EXPECT_EQ(read(text, "n", x), Field::kMissing);
  EXPECT_EQ(read_digest(text, "n", d), Field::kMissing);
  EXPECT_EQ(read(text, "nullish", u), Field::kInvalid);
  EXPECT_EQ(read_digest(text, "absent", d), Field::kMissing);
  EXPECT_EQ(u, 5U);
  EXPECT_EQ(x, 5.0);
  EXPECT_EQ(d, 5U);
  // A key is matched whole: "a" does not find the tail of another key.
  EXPECT_EQ(read(R"({"ba":1})", "a", u), Field::kMissing);
  EXPECT_EQ(read(text, "a", u), Field::kOk);
  EXPECT_EQ(u, 1U);
}

}  // namespace
}  // namespace vstream::obs::json
