// The JSON reader's contract: it round-trips everything the farm's
// own to_json emits (objects, arrays, strings with escapes, doubles,
// bools, null), preserves object member order, and rejects the
// malformed inputs strict JSON rejects.
#include "util/json.h"

#include <gtest/gtest.h>

#include <climits>
#include <string>

namespace qosctrl::util {
namespace {

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(parse_json(text, &v, &error)) << text << ": " << error;
  return v;
}

std::string parse_error(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(parse_json(text, &v, &error)) << text;
  return error;
}

TEST(JsonTest, Scalars) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").as_bool());
  EXPECT_FALSE(parse_ok("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_ok("42").as_number(), 42.0);
  EXPECT_EQ(parse_ok("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(parse_ok("0.25").as_number(), 0.25);
  EXPECT_DOUBLE_EQ(parse_ok("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(parse_ok("-2.5E-2").as_number(), -0.025);
  EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");
  // 53-bit integers survive the double representation exactly.
  EXPECT_EQ(parse_ok("9007199254740991").as_int(), 9007199254740991LL);
}

// as_int requires an integral number inside the int64 range: casting
// anything else to long long is undefined, so readers ask is_int first.
TEST(JsonTest, IsIntChecksIntegralityAndRange) {
  EXPECT_TRUE(parse_ok("-9223372036854775808").is_int());
  EXPECT_EQ(parse_ok("-9223372036854775808").as_int(), LLONG_MIN);
  EXPECT_TRUE(parse_ok("4e18").is_int());
  EXPECT_TRUE(parse_ok("-0").is_int());
  for (const char* text : {"9223372036854775808", "1e300", "-1e300", "0.5",
                           "-2.5", "\"7\"", "true", "null", "[1]"}) {
    EXPECT_FALSE(parse_ok(text).is_int()) << text;
  }
}

// A number written as an integer keeps its token: a uint64 farm seed
// past 2^53 (or past 2^63) reads back digit for digit.
TEST(JsonTest, IntegerTokensAreKeptExactly) {
  for (const char* text : {"10617743076000001", "10617743076000000001",
                           "18446744073709551615", "-7", "0"}) {
    EXPECT_EQ(parse_ok(text).integer_token(), text);
  }
  for (const char* text : {"1e300", "4e18", "0.5", "-2.5E-2", "10.0"}) {
    EXPECT_TRUE(parse_ok(text).integer_token().empty()) << text;
  }
  const JsonValue doc = parse_ok("{\"farm_seed\":10617743076000000001}");
  EXPECT_EQ(doc.find("farm_seed")->integer_token(), "10617743076000000001");
  EXPECT_DOUBLE_EQ(doc.find("farm_seed")->as_number(), 10617743076000000001.0);
}

TEST(JsonDeathTest, AsIntRejectsWhatIsNotAnInt64) {
  EXPECT_DEATH(parse_ok("1e300").as_int(), "int64 range");
  EXPECT_DEATH(parse_ok("2.5").as_int(), "int64 range");
  EXPECT_DEATH(parse_ok("\"7\"").as_int(), "int64 range");
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(parse_ok("\"a\\\"b\\\\c\\/d\"").as_string(), "a\"b\\c/d");
  EXPECT_EQ(parse_ok("\"\\b\\f\\n\\r\\t\"").as_string(), "\b\f\n\r\t");
  EXPECT_EQ(parse_ok("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_ok("\"\\u00e9\"").as_string(), "\xc3\xa9");      // é
  EXPECT_EQ(parse_ok("\"\\u20ac\"").as_string(), "\xe2\x82\xac");  // €
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse_ok("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonTest, ArraysAndObjects) {
  const JsonValue arr = parse_ok(" [1, [2, 3], {\"k\": 4}, null] ");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.items().size(), 4u);
  EXPECT_EQ(arr.items()[0].as_int(), 1);
  EXPECT_EQ(arr.items()[1].items()[1].as_int(), 3);
  EXPECT_EQ(arr.items()[2].find("k")->as_int(), 4);
  EXPECT_TRUE(arr.items()[3].is_null());
  EXPECT_TRUE(parse_ok("[]").items().empty());
  EXPECT_TRUE(parse_ok("{}").members().empty());

  // Member order is preserved; find is by key, kinds are checkable.
  const JsonValue obj = parse_ok("{\"b\":1,\"a\":{\"x\":true},\"c\":[]}");
  ASSERT_EQ(obj.members().size(), 3u);
  EXPECT_EQ(obj.members()[0].first, "b");
  EXPECT_EQ(obj.members()[1].first, "a");
  EXPECT_NE(obj.find("a", JsonKind::kObject), nullptr);
  EXPECT_EQ(obj.find("a", JsonKind::kArray), nullptr);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_EQ(obj.find("b")->as_int(), 1);
}

TEST(JsonTest, ParsesAFarmReportShape) {
  // The exact nesting qosreport reads: timeseries tracks of number
  // rows plus the SLO objective array.
  const JsonValue doc = parse_ok(
      "{\"timeseries\":{\"window\":4000000,\"tracks\":{"
      "\"frame_latency_cycles\":[[0,2,7,3,4,3,3,3],"
      "[2,1,100,100,100,127,127,127]]}},"
      "\"slo\":{\"objectives\":[{\"spec\":\"latency_p99<1.5w@20ms\","
      "\"met\":true,\"budget_remaining\":1}],\"all_met\":true}}");
  const JsonValue* ts = doc.find("timeseries", JsonKind::kObject);
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->find("window")->as_int(), 4000000);
  const JsonValue* tracks = ts->find("tracks", JsonKind::kObject);
  ASSERT_NE(tracks, nullptr);
  const JsonValue* track = tracks->find("frame_latency_cycles");
  ASSERT_NE(track, nullptr);
  ASSERT_EQ(track->items().size(), 2u);
  EXPECT_EQ(track->items()[1].items()[7].as_int(), 127);
  const JsonValue* slo = doc.find("slo", JsonKind::kObject);
  ASSERT_NE(slo, nullptr);
  EXPECT_TRUE(slo->find("all_met")->as_bool());
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_NE(parse_error(""), "");
  EXPECT_NE(parse_error("{"), "");
  EXPECT_NE(parse_error("[1,"), "");
  EXPECT_NE(parse_error("[1,]"), "");         // trailing comma
  EXPECT_NE(parse_error("{\"a\":1,}"), "");   // trailing comma
  EXPECT_NE(parse_error("{a:1}"), "");        // unquoted key
  EXPECT_NE(parse_error("{\"a\" 1}"), "");    // missing colon
  EXPECT_NE(parse_error("\"unterminated"), "");
  EXPECT_NE(parse_error("\"bad \\q escape\""), "");
  EXPECT_NE(parse_error("\"\\ud83d\""), "");  // unpaired surrogate
  EXPECT_NE(parse_error("nul"), "");
  EXPECT_NE(parse_error("truefalse"), "");    // trailing garbage
  EXPECT_NE(parse_error("1 2"), "");
  EXPECT_NE(parse_error("+5"), "");
  EXPECT_NE(parse_error("0x10"), "");
  EXPECT_NE(parse_error("1e999"), "");        // overflows to infinity
  EXPECT_NE(parse_error("NaN"), "");
  // Error messages carry the line of the failure.
  EXPECT_EQ(parse_error("{\n\"a\": }").substr(0, 7), "line 2:");
}

TEST(JsonTest, DepthIsBounded) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_NE(parse_error(deep), "");
  std::string fine;
  for (int i = 0; i < 100; ++i) fine += '[';
  for (int i = 0; i < 100; ++i) fine += ']';
  JsonValue v;
  EXPECT_TRUE(parse_json(fine, &v, nullptr));
}

}  // namespace
}  // namespace qosctrl::util
