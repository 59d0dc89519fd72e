// The report writer's contract: numbers print exactly as printf's
// "%.17g" and "%lld" do (the reports' bytes were fixed before the
// writer existed), string values are escaped per RFC 8259, the structural
// calls place every comma, and whatever the writer emits
// util::parse_json reads back to the same value.  The round trips are
// seeded random properties over each value type and over nested trees.
#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/rng.h"

namespace qosctrl::util {
namespace {

std::string printf_g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double random_finite_double(Rng& rng) {
  while (true) {
    const double d = std::bit_cast<double>(rng.next_u64());
    if (std::isfinite(d)) return d;
  }
}

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(parse_json(text, &v, &error)) << text << ": " << error;
  return v;
}

TEST(JsonWriterTest, DoublesPrintAsPrintfG17) {
  for (const double v :
       {0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 36.123456789, 1e16, 1e17, 1e-5,
        1e-300, 5e-324, std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(), 123456789012345678.0}) {
    JsonWriter w;
    w.raw_number(v);
    EXPECT_EQ(w.take(), printf_g17(v)) << v;
  }
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const double v = random_finite_double(rng);
    JsonWriter w;
    w.raw_number(v);
    ASSERT_EQ(w.take(), printf_g17(v)) << std::bit_cast<std::uint64_t>(v);
  }
}

// std::to_chars would print "inf" and "nan", which util::parse_json
// (and every JSON reader) rejects, so every number entry point aborts
// on them instead.
TEST(JsonWriterDeathTest, RejectsNonFiniteNumbers) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(JsonWriter().number(inf), "finite");
  EXPECT_DEATH(JsonWriter().raw_number(-inf), "finite");
  EXPECT_DEATH(JsonWriter().integral_or_number(-inf), "finite");
  EXPECT_DEATH(
      JsonWriter().raw_integral_or_number(
          std::numeric_limits<double>::quiet_NaN()),
      "finite");
}

TEST(JsonWriterTest, IntegersPrintAsPrintf) {
  Rng rng(3);
  std::vector<long long> values = {0, -1, 1, LLONG_MIN, LLONG_MAX};
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<long long>(rng.next_u64()));
  }
  for (const long long v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", v);
    JsonWriter w;
    w.raw_integer(v);
    EXPECT_EQ(w.take(), buf);
  }
}

// Seeds are unsigned 64-bit values: value() and csv_cell() write every
// unsigned type through the unsigned writer, whole past 2^63.
TEST(JsonWriterTest, UnsignedValuesPrintAsPrintf) {
  Rng rng(5);
  std::vector<unsigned long long> values = {0, 1, 1ULL << 63, ULLONG_MAX};
  for (int i = 0; i < 1000; ++i) values.push_back(rng.next_u64());
  for (const unsigned long long v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", v);
    JsonWriter w;
    w.value(static_cast<std::uint64_t>(v)).raw(' ');
    csv_cell(w, static_cast<std::uint64_t>(v));
    EXPECT_EQ(w.take(), std::string(buf) + " " + buf);
  }
  JsonWriter w;
  w.begin_array().value(std::size_t{7}).value(-7).value(true).end_array();
  csv_cell(w, true);
  EXPECT_EQ(w.take(), "[7,-7,true]1");
}

// A text row is " name=value" per column, each value as value() writes
// it (a range as an array), then a newline.
TEST(JsonWriterTest, TextRowWritesJsonValues) {
  const auto columns = [](int n, auto&& column) {
    column("n", n);
    column("on", n > 0);
    column("mode", "a b");
    column("share", 0.5);
    column("levels", std::vector<long long>{1, 2});
    column("none", std::vector<long long>{});
  };
  JsonWriter w;
  w.raw("row 3:");
  text_row(w, columns, 3);
  w.raw("next:");
  text_row(w, columns, -1);
  EXPECT_EQ(w.take(),
            "row 3: n=3 on=true mode=\"a b\" share=0.5 levels=[1,2] none=[]\n"
            "next: n=-1 on=false mode=\"a b\" share=0.5 levels=[1,2] "
            "none=[]\n");
}

// SLO values print integral values as integers and everything else at
// full precision.  The range test must come before the cast: outside
// [-2^63, 2^63) the cast to long long is undefined.
TEST(JsonWriterTest, IntegralOrNumberChecksTheRangeBeforeCasting) {
  const std::pair<double, const char*> cases[] = {
      {3.0, "3"},
      {-0.0, "0"},
      {0.5, "0.5"},
      {0.05, "0.050000000000000003"},
      {-0x1p63, "-9223372036854775808"},
      {0x1p63, "9.2233720368547758e+18"},
      {1e30, "1e+30"},
      {-1e300, "-1.0000000000000001e+300"},
  };  // infinities and NaN abort (RejectsNonFiniteNumbers)
  for (const auto& [v, text] : cases) {
    JsonWriter w;
    w.raw_integral_or_number(v);
    EXPECT_EQ(w.take(), text) << v;
  }
}

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlCharacters) {
  JsonWriter w;
  w.string("a\"b\\c/d\n\x01\x1f\x7f\xc3\xa9");
  EXPECT_EQ(w.take(), "\"a\\\"b\\\\c/d\\u000a\\u0001\\u001f\x7f\xc3\xa9\"");
}

TEST(JsonWriterTest, StructuralCallsPlaceEveryComma) {
  JsonWriter w;
  w.begin_object().key("a").integer(1).key("b").begin_array();
  w.integer(2).string("x").begin_object().end_object().begin_array();
  w.end_array().boolean(false).number(0.25).end_array();
  w.key("c").json("{\"d\":null}").key("e").begin_string().raw("s");
  w.raw_integer(3).raw('/').end_string().key("f").integral_or_number(4.0);
  w.end_object();
  EXPECT_EQ(w.take(),
            "{\"a\":1,\"b\":[2,\"x\",{},[],false,0.25],\"c\":{\"d\":null},"
            "\"e\":\"s3/\",\"f\":4}");

  // json() also splices a run of members into an open object.
  JsonWriter m;
  m.begin_object().json("\"k\":1,\"l\":2").key("m").integer(3).end_object();
  EXPECT_EQ(m.take(), "{\"k\":1,\"l\":2,\"m\":3}");

  // newline() goes after the comma: the trace's one-event-per-line form.
  JsonWriter n;
  n.begin_array().newline().integer(1).newline().integer(2).raw('\n');
  n.end_array();
  EXPECT_EQ(n.take(), "[\n1,\n2\n]");
}

/// A random string: ASCII from the whole 0..127 range (every control
/// character, the quote and the backslash included) mixed with valid
/// UTF-8 sequences of 2 to 4 bytes.
std::string random_string(Rng& rng) {
  std::string s;
  const int n = static_cast<int>(rng.next_u64() % 24);
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.7)) {
      s.push_back(static_cast<char>(rng.next_u64() % 128));
      continue;
    }
    std::uint32_t cp = 0;
    do {
      cp = 0x80 + static_cast<std::uint32_t>(rng.next_u64() % 0x10FF80);
    } while (cp >= 0xD800 && cp <= 0xDFFF);  // no surrogates in UTF-8
    if (cp < 0x800) {
      s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    } else if (cp < 0x10000) {
      s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    } else {
      s.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    }
    s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
  return s;
}

TEST(JsonWriterRoundTrip, Strings) {
  std::string every_escape;
  for (int c = 0; c < 0x20; ++c) every_escape.push_back(static_cast<char>(c));
  every_escape += "\"\\/";
  std::vector<std::string> cases = {"", every_escape};
  Rng rng(7);
  for (int i = 0; i < 3000; ++i) cases.push_back(random_string(rng));
  for (const std::string& s : cases) {
    JsonWriter w;
    w.string(s);
    const std::string text = w.take();
    ASSERT_EQ(parse_ok(text).as_string(), s) << text;
  }
}

TEST(JsonWriterRoundTrip, DoublesAtPrecision17) {
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const double d = random_finite_double(rng);
    JsonWriter w;
    w.number(d);
    const std::string text = w.take();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(parse_ok(text).as_number()),
              std::bit_cast<std::uint64_t>(d))
        << text;
  }
}

TEST(JsonWriterRoundTrip, IntegersWithin53Bits) {
  constexpr long long kLimit = 1LL << 53;
  std::vector<long long> values = {0, kLimit, -kLimit, kLimit - 1};
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    values.push_back(static_cast<long long>(rng.next_u64() %
                                            (2 * kLimit + 1)) -
                     kLimit);
  }
  for (const long long v : values) {
    JsonWriter w;
    w.integer(v);
    ASSERT_EQ(parse_ok(w.take()).as_int(), v);
  }
}

/// A random object key: keys are names the program defines, written
/// verbatim, so they are drawn from the characters those names use.
std::string random_key(Rng& rng) {
  static constexpr char kChars[] = "abcdefghijklmnopqrstuvwxyz0123456789_@/";
  std::string key;
  const int n = 1 + static_cast<int>(rng.next_u64() % 12);
  for (int i = 0; i < n; ++i) {
    key.push_back(kChars[rng.next_u64() % (sizeof kChars - 1)]);
  }
  return key;
}

/// A random document tree: objects and arrays down to `depth`, then
/// leaves of every kind.
JsonValue random_tree(Rng& rng, int depth) {
  const int pick = static_cast<int>(rng.next_u64() % (depth > 0 ? 7 : 5));
  switch (pick) {
    case 0:
      return JsonValue::make_null();
    case 1:
      return JsonValue::make_bool(rng.chance(0.5));
    case 2:
      return JsonValue::make_number(random_finite_double(rng));
    case 3:
      return JsonValue::make_number(
          static_cast<double>(static_cast<long long>(rng.next_u64() % 2001) -
                              1000));
    case 4:
      return JsonValue::make_string(random_string(rng));
    case 5: {
      std::vector<JsonValue> items;
      const int n = static_cast<int>(rng.next_u64() % 5);
      for (int i = 0; i < n; ++i) items.push_back(random_tree(rng, depth - 1));
      return JsonValue::make_array(std::move(items));
    }
    default: {
      std::vector<std::pair<std::string, JsonValue>> members;
      const int n = static_cast<int>(rng.next_u64() % 5);
      for (int i = 0; i < n; ++i) {
        members.emplace_back(random_key(rng), random_tree(rng, depth - 1));
      }
      return JsonValue::make_object(std::move(members));
    }
  }
}

void write_tree(JsonWriter& w, const JsonValue& v) {
  switch (v.kind()) {
    case JsonKind::kNull:
      w.json("null");
      break;
    case JsonKind::kBool:
      w.boolean(v.as_bool());
      break;
    case JsonKind::kNumber: {
      const double d = v.as_number();
      if (d == std::trunc(d) && std::abs(d) <= 0x1p53) {
        w.integer(static_cast<long long>(d));
      } else {
        w.number(d);
      }
      break;
    }
    case JsonKind::kString:
      w.string(v.as_string());
      break;
    case JsonKind::kArray:
      w.begin_array();
      for (const JsonValue& item : v.items()) write_tree(w, item);
      w.end_array();
      break;
    case JsonKind::kObject:
      w.begin_object();
      for (const auto& [key, item] : v.members()) {
        w.key(key);
        write_tree(w, item);
      }
      w.end_object();
      break;
  }
}

bool same_tree(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case JsonKind::kNull:
      return true;
    case JsonKind::kBool:
      return a.as_bool() == b.as_bool();
    case JsonKind::kNumber:
      // -0 written as the integer 0 reads back as +0.
      return a.as_number() == b.as_number();
    case JsonKind::kString:
      return a.as_string() == b.as_string();
    case JsonKind::kArray:
      if (a.items().size() != b.items().size()) return false;
      for (std::size_t i = 0; i < a.items().size(); ++i) {
        if (!same_tree(a.items()[i], b.items()[i])) return false;
      }
      return true;
    case JsonKind::kObject:
      if (a.members().size() != b.members().size()) return false;
      for (std::size_t i = 0; i < a.members().size(); ++i) {
        if (a.members()[i].first != b.members()[i].first ||
            !same_tree(a.members()[i].second, b.members()[i].second)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

TEST(JsonWriterRoundTrip, NestedTrees) {
  Rng rng(29);
  for (int i = 0; i < 500; ++i) {
    const JsonValue tree = random_tree(rng, 4);
    JsonWriter w;
    write_tree(w, tree);
    const std::string text = w.take();
    ASSERT_TRUE(same_tree(parse_ok(text), tree)) << text;
  }
}

}  // namespace
}  // namespace qosctrl::util
