#include "util/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/check.h"

namespace qosctrl::util {

namespace {

/// RFC 8259: the quote, the backslash and the control characters.
bool needs_escape(char ch) {
  const auto c = static_cast<unsigned char>(ch);
  return c < 0x20 || c == '"' || c == '\\';
}

}  // namespace

void JsonWriter::grow(std::size_t n) {
  buf_.resize(std::max(2 * buf_.size(), len_ + n));
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  return raw('{');
}

JsonWriter& JsonWriter::end_object() {
  raw('}');
  return item_done();
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  return raw('[');
}

JsonWriter& JsonWriter::end_array() {
  raw(']');
  return item_done();
}

JsonWriter& JsonWriter::key(std::string_view name) {
  QC_DCHECK(std::none_of(name.begin(), name.end(), needs_escape),
            "JSON keys are written verbatim and must need no escape");
  separate();
  return raw('"').raw(name).raw("\":");
}

JsonWriter& JsonWriter::string(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  separate();
  raw('"');
  for (auto run = s.begin(); run != s.end();) {
    const auto at = std::find_if(run, s.end(), needs_escape);
    raw(std::string_view(run, at));
    if (at == s.end()) break;
    const auto c = static_cast<unsigned char>(*at);
    if (c < 0x20) {
      raw("\\u00").raw(kHex[c >> 4]).raw(kHex[c & 0xF]);
    } else {
      raw('\\').raw(*at);
    }
    run = at + 1;
  }
  raw('"');
  return item_done();
}

JsonWriter& JsonWriter::integer(long long v) {
  separate();
  raw_integer(v);
  return item_done();
}

JsonWriter& JsonWriter::unsigned_integer(unsigned long long v) {
  separate();
  raw_unsigned(v);
  return item_done();
}

JsonWriter& JsonWriter::number(double v) {
  separate();
  raw_number(v);
  return item_done();
}

JsonWriter& JsonWriter::integral_or_number(double v) {
  separate();
  raw_integral_or_number(v);
  return item_done();
}

JsonWriter& JsonWriter::boolean(bool b) {
  separate();
  raw(b ? "true" : "false");
  return item_done();
}

JsonWriter& JsonWriter::json(std::string_view text) {
  separate();
  raw(text);
  return item_done();
}

JsonWriter& JsonWriter::begin_string() {
  separate();
  return raw('"');
}

JsonWriter& JsonWriter::end_string() {
  raw('"');
  return item_done();
}

JsonWriter& JsonWriter::newline() {
  separate();
  return raw('\n');
}

JsonWriter& JsonWriter::raw_integer(long long v) {
  constexpr std::size_t kMaxChars = 20;  // "-9223372036854775808"
  char* at = room(kMaxChars);
  len_ = static_cast<std::size_t>(std::to_chars(at, at + kMaxChars, v).ptr -
                                  buf_.data());
  return *this;
}

JsonWriter& JsonWriter::raw_unsigned(unsigned long long v) {
  constexpr std::size_t kMaxChars = 20;  // "18446744073709551615"
  char* at = room(kMaxChars);
  len_ = static_cast<std::size_t>(std::to_chars(at, at + kMaxChars, v).ptr -
                                  buf_.data());
  return *this;
}

JsonWriter& JsonWriter::raw_number(double v) {
  // std::to_chars would write "inf" or "nan", which no JSON reader
  // (util::parse_json included) accepts.
  QC_EXPECT(std::isfinite(v), "JSON numbers must be finite");
  constexpr std::size_t kMaxChars = 24;  // "-2.2250738585072014e-308"
  char* at = room(kMaxChars);
  len_ = static_cast<std::size_t>(
      std::to_chars(at, at + kMaxChars, v, std::chars_format::general, 17)
          .ptr -
      buf_.data());
  return *this;
}

JsonWriter& JsonWriter::raw_integral_or_number(double v) {
  // The range test comes first: casting a double outside the int64
  // range (or NaN) to long long is undefined behaviour.
  if (v >= -0x1p63 && v < 0x1p63) {
    const auto i = static_cast<long long>(v);
    if (static_cast<double>(i) == v) return raw_integer(i);
  }
  return raw_number(v);
}

bool JsonValue::as_bool() const {
  QC_EXPECT(kind_ == JsonKind::kBool, "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  QC_EXPECT(kind_ == JsonKind::kNumber, "JSON value is not a number");
  return number_;
}

bool JsonValue::is_int() const {
  // The range test comes first: casting a double outside the int64
  // range to long long is undefined behaviour.
  return is_number() && number_ >= -0x1p63 && number_ < 0x1p63 &&
         std::trunc(number_) == number_;
}

long long JsonValue::as_int() const {
  QC_EXPECT(is_int(), "JSON value is not an integer within the int64 range");
  return static_cast<long long>(number_);
}

const std::string& JsonValue::integer_token() const {
  QC_EXPECT(kind_ == JsonKind::kNumber, "JSON value is not a number");
  return string_;
}

const std::string& JsonValue::as_string() const {
  QC_EXPECT(kind_ == JsonKind::kString, "JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  QC_EXPECT(kind_ == JsonKind::kArray, "JSON value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  QC_EXPECT(kind_ == JsonKind::kObject, "JSON value is not an object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != JsonKind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue* JsonValue::find(const std::string& key,
                                 JsonKind kind) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind() == kind) ? v : nullptr;
}

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = JsonKind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d, std::string integer_token) {
  JsonValue v;
  v.kind_ = JsonKind::kNumber;
  v.number_ = d;
  v.string_ = std::move(integer_token);
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = JsonKind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = JsonKind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = JsonKind::kObject;
  v.members_ = std::move(members);
  return v;
}

namespace {

// Recursive-descent parser over the raw text.  Depth is bounded so a
// pathological input can't blow the stack.
class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool parse_document(JsonValue* out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 128;

  bool fail(const std::string& message) {
    long line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    *error_ = "line " + std::to_string(line) + ": " + message;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        if (!consume_literal("null")) return fail("bad literal");
        *out = JsonValue::make_null();
        return true;
      case 't':
        if (!consume_literal("true")) return fail("bad literal");
        *out = JsonValue::make_bool(true);
        return true;
      case 'f':
        if (!consume_literal("false")) return fail("bad literal");
        *out = JsonValue::make_bool(false);
        return true;
      case '"':
        return parse_string_value(out);
      case '[':
        return parse_array(out, depth);
      case '{':
        return parse_object(out, depth);
      default:
        return parse_number(out);
    }
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || peek() < '0' || peek() > '9') {
      pos_ = start;
      return fail("bad number");
    }
    while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    const std::size_t integer_end = pos_;
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') return fail("bad number");
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') return fail("bad number");
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    const double d = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(d)) return fail("number out of range");
    *out = JsonValue::make_number(
        d, pos_ == integer_end ? token : std::string());
    return true;
  }

  // Appends `cp` (a Unicode scalar value) to `out` as UTF-8.
  static void append_utf8(unsigned long cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_hex4(unsigned long* out) {
    unsigned long v = 0;
    for (int i = 0; i < 4; ++i) {
      if (at_end()) return fail("unterminated \\u escape");
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned long>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned long>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned long>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape");
      }
    }
    *out = v;
    return true;
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (at_end()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (at_end()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned long cp = 0;
          if (!parse_hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: the low half must follow immediately.
            if (!consume_literal("\\u")) return fail("unpaired surrogate");
            unsigned long lo = 0;
            if (!parse_hex4(&lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) return fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(cp, out);
          break;
        }
        default:
          return fail("bad escape");
      }
    }
  }

  bool parse_string_value(JsonValue* out) {
    std::string s;
    if (!parse_string(&s)) return false;
    *out = JsonValue::make_string(std::move(s));
    return true;
  }

  bool parse_array(JsonValue* out, int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      *out = JsonValue::make_array(std::move(items));
      return true;
    }
    while (true) {
      JsonValue item;
      if (!parse_value(&item, depth + 1)) return false;
      items.push_back(std::move(item));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') break;
      if (c != ',') return fail("expected ',' or ']'");
      skip_ws();
    }
    *out = JsonValue::make_array(std::move(items));
    return true;
  }

  bool parse_object(JsonValue* out, int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      *out = JsonValue::make_object(std::move(members));
      return true;
    }
    while (true) {
      if (at_end() || peek() != '"') return fail("expected object key");
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (at_end() || text_[pos_++] != ':') return fail("expected ':'");
      skip_ws();
      JsonValue item;
      if (!parse_value(&item, depth + 1)) return false;
      members.emplace_back(std::move(key), std::move(item));
      skip_ws();
      if (at_end()) return fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') break;
      if (c != ',') return fail("expected ',' or '}'");
      skip_ws();
    }
    *out = JsonValue::make_object(std::move(members));
    return true;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse_json(const std::string& text, JsonValue* out, std::string* error) {
  std::string scratch;
  Parser parser(text, error != nullptr ? error : &scratch);
  return parser.parse_document(out);
}

}  // namespace qosctrl::util
