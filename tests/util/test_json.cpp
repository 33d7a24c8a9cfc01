#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace wsnex::util {
namespace {

TEST(Json, ParsesPrimitives) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("42").as_int64(), 42);
  EXPECT_EQ(Json::parse("-7").as_int64(), -7);
  EXPECT_DOUBLE_EQ(Json::parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(Json::parse("-1.25e-2").as_double(), -0.0125);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, IntegerIdentityIsTracked) {
  EXPECT_TRUE(Json::parse("10").is_integer());
  EXPECT_FALSE(Json::parse("10.0").is_integer());
  EXPECT_FALSE(Json::parse("1e2").is_integer());
  // Integers also read as doubles; non-integers refuse as_int64.
  EXPECT_DOUBLE_EQ(Json::parse("10").as_double(), 10.0);
  EXPECT_THROW(Json::parse("10.5").as_int64(), JsonTypeError);
}

TEST(Json, Int64LimitsRoundTrip) {
  const std::string max = std::to_string(std::numeric_limits<std::int64_t>::max());
  const std::string min = std::to_string(std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Json::parse(max).as_int64(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(Json::parse(min).as_int64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Json::parse(max).dump(), max);
  // Beyond int64: falls back to double instead of failing.
  EXPECT_FALSE(Json::parse("99999999999999999999").is_integer());
  EXPECT_NEAR(Json::parse("99999999999999999999").as_double(), 1e20, 1e6);
}

TEST(Json, ParsesNestedContainers) {
  const Json v = Json::parse(R"({
    "a": [1, 2, {"b": [true, null]}],
    "c": {"d": "x"}
  })");
  ASSERT_TRUE(v.is_object());
  const Json::Array& a = v.at("a").as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[1].as_int64(), 2);
  EXPECT_TRUE(a[2].at("b").as_array()[1].is_null());
  EXPECT_EQ(v.at("c").at("d").as_string(), "x");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), JsonTypeError);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  const Json v = Json::parse(R"({"z": 1, "a": 2, "m": 3})");
  const Json::Object& o = v.as_object();
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
  EXPECT_EQ(v.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  // \u escape incl. a surrogate pair (U+1F600) and a 2-byte code point.
  EXPECT_EQ(Json::parse(R"("\u00e9")").as_string(), "\xc3\xa9");
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
  // Control characters are re-escaped on dump.
  EXPECT_EQ(Json(std::string("a\nb")).dump(), R"("a\nb")");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), R"("\u0001")");
}

TEST(Json, MalformedInputsThrowWithPosition) {
  EXPECT_THROW(Json::parse(""), JsonParseError);
  EXPECT_THROW(Json::parse("{"), JsonParseError);
  EXPECT_THROW(Json::parse("[1,]"), JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonParseError);
  EXPECT_THROW(Json::parse("{a: 1}"), JsonParseError);
  EXPECT_THROW(Json::parse("tru"), JsonParseError);
  EXPECT_THROW(Json::parse("01"), JsonParseError);
  EXPECT_THROW(Json::parse("1."), JsonParseError);
  EXPECT_THROW(Json::parse("1e"), JsonParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(Json::parse("\"bad\\q\""), JsonParseError);
  EXPECT_THROW(Json::parse("\"\\u12g4\""), JsonParseError);
  EXPECT_THROW(Json::parse("\"\\ud800\""), JsonParseError);  // lone surrogate
  EXPECT_THROW(Json::parse("[1] trailing"), JsonParseError);
  EXPECT_THROW(Json::parse("nan"), JsonParseError);

  try {
    Json::parse("{\n  \"a\": ?\n}");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.column(), 8u);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Json, DeepNestingIsRejectedNotStackOverflow) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  EXPECT_THROW(Json::parse(deep), JsonParseError);
  // 100 levels are fine.
  std::string ok(100, '[');
  ok += std::string(100, ']');
  EXPECT_NO_THROW(Json::parse(ok));
}

TEST(Json, DumpParseRoundTripPreservesValues) {
  Json obj = Json::object();
  obj.set("pi", 3.141592653589793);
  obj.set("third", 1.0 / 3.0);
  obj.set("tiny", 5e-324);  // smallest subnormal
  obj.set("big", 1.7976931348623157e308);
  obj.set("neg", -0.1);
  obj.set("count", std::int64_t{123456789012345});
  obj.set("text", "quote\" comma, newline\n");
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back(false);
  obj.set("arr", std::move(arr));

  for (const int indent : {-1, 0, 2}) {
    const Json back = Json::parse(obj.dump(indent));
    EXPECT_EQ(back, obj) << "indent=" << indent;
    EXPECT_EQ(back.at("third").as_double(), 1.0 / 3.0);
    EXPECT_EQ(back.at("tiny").as_double(), 5e-324);
  }
}

TEST(Json, DumpPrettyPrints) {
  Json obj = Json::object();
  obj.set("a", 1);
  Json nested = Json::object();
  nested.set("b", 2);
  obj.set("n", std::move(nested));
  EXPECT_EQ(obj.dump(2), "{\n  \"a\": 1,\n  \"n\": {\n    \"b\": 2\n  }\n}\n");
  EXPECT_EQ(obj.dump(), R"({"a":1,"n":{"b":2}})");
  EXPECT_EQ(Json::array().dump(2), "[]\n");
}

TEST(Json, NonFiniteNumbersRefuseToDump) {
  EXPECT_THROW(Json(std::nan("")).dump(), std::invalid_argument);
  EXPECT_THROW(Json(std::numeric_limits<double>::infinity()).dump(),
               std::invalid_argument);
}

/// The snprintf/strtod loop format_double_shortest must reproduce byte for
/// byte: every persisted number (progress records, CSV rows, summaries,
/// validation files, cache keys) goes through it.
std::string reference_shortest(double value) {
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

TEST(FormatDoubleShortest, MatchesPrintfReferenceOnAMillionDoubles) {
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::epsilon(),
      0.1,
      1.0 / 3.0,
      1e15,
      1e16,
      1e17,
      123456789012345678.0,
  };
  std::mt19937_64 rng(20121);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> exponent(-320, 308);
  constexpr int kPerFamily = 350000;
  for (int i = 0; i < kPerFamily; ++i) {
    // Arbitrary bit patterns: every exponent, sign and NaN payload.
    values.push_back(std::bit_cast<double>(rng()));
    // Uniforms scaled across the decimal range, the shape of model output.
    values.push_back(unit(rng) * std::pow(10.0, exponent(rng)));
    // Subnormals: only the low 52 bits set.
    const double sub =
        std::bit_cast<double>(rng() & ((std::uint64_t{1} << 52) - 1));
    values.push_back(i % 2 == 0 ? sub : -sub);
  }
  // Exact decimal ties at 16 and 17 significant digits (k + 0.5 with a
  // 16-digit k), where printf rounds half to even.
  for (std::uint64_t k = 1000000000000000; k < 1000000000000000 + 2000; ++k) {
    values.push_back(static_cast<double>(k) + 0.5);
  }
  // Powers of two and their neighbours: a power of two's round-trip
  // interval is narrower below than above, the one place where a
  // shorter round-tripping decimal need not make %.15g round-trip.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    values.push_back(p);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(std::nextafter(p, 2.0 * p));
  }
  ASSERT_GE(values.size(), 1000000u);

  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string got = format_double_shortest(v);
    const std::string want = reference_shortest(v);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "value bits " << std::hex
                    << std::bit_cast<std::uint64_t>(v) << ": got " << got
                    << ", printf " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Json, TypeErrorsNameTheActualType) {
  try {
    Json::parse("[1]").as_object();
    FAIL() << "expected JsonTypeError";
  } catch (const JsonTypeError& e) {
    EXPECT_NE(std::string(e.what()).find("expected object"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("array"), std::string::npos);
  }
}

TEST(Json, SetReplacesExistingKey) {
  Json obj = Json::object();
  obj.set("k", 1);
  obj.set("k", 2);
  ASSERT_EQ(obj.as_object().size(), 1u);
  EXPECT_EQ(obj.at("k").as_int64(), 2);
}

}  // namespace
}  // namespace wsnex::util
