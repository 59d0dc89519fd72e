// The reports' JSON format in one module: an append-only writer that
// every report emitter builds its text with, and a minimal document
// model with a recursive-descent parser.
//
// qosreport (tools/qosreport_main.cpp) reads the farm's own JSON
// export back in to render the HTML dashboard, so the parser only has
// to cover what farm::to_json emits: objects, arrays, strings with
// the usual escapes, finite numbers, booleans, and null.  It is a
// strict reader — trailing garbage, trailing commas, NaN/Infinity and
// unpaired surrogates are errors — and it keeps numbers as doubles,
// which is exact for the 53-bit integer range the reports stay in.
#pragma once

#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qosctrl::util {

/// Append-only text builder for the JSON reports (and, through its raw
/// appends, the CSV report).  Integers and doubles are written with
/// std::to_chars; a double prints as printf's "%.17g" would, which
/// round-trips.  String values are escaped per RFC 8259: the quote,
/// the backslash and every control character (as \u00XX).  The structural
/// calls insert the separating commas themselves, so an object's
/// members or an array's items are written one after another.
class JsonWriter {
 public:
  /// Sizes the buffer for `bytes` of text up front.
  void reserve(std::size_t bytes) {
    if (bytes > buf_.size()) buf_.resize(bytes);
  }
  /// Moves the text out; the writer is empty afterwards.
  std::string take() {
    buf_.resize(len_);
    len_ = 0;
    need_comma_ = false;
    return std::move(buf_);
  }

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// An object member's key, `"name":`; the value follows.  Keys are
  /// names the program defines (literals, metric, track and phase
  /// names), written verbatim; debug builds check that none needs an
  /// escape.
  JsonWriter& key(std::string_view name);
  JsonWriter& string(std::string_view s);
  JsonWriter& integer(long long v);
  JsonWriter& number(double v);
  /// An integral value within the int64 range as an integer ("3", not
  /// "3.0"), anything else as number().
  JsonWriter& integral_or_number(double v);
  JsonWriter& boolean(bool b);
  /// Already-serialized JSON written as one item: a value, or inside an
  /// object a run of members.
  JsonWriter& json(std::string_view text);
  /// A string value assembled from raw appends between the two calls;
  /// the caller guarantees that none of the pieces needs escaping.
  JsonWriter& begin_string();
  JsonWriter& end_string();
  /// Starts the next item on a new line (after its comma, if any).
  JsonWriter& newline();

  /// Raw appends: no separators, quoting or escaping.
  JsonWriter& raw(std::string_view text) {
    std::memcpy(room(text.size()), text.data(), text.size());
    len_ += text.size();
    return *this;
  }
  JsonWriter& raw(char c) {
    *room(1) = c;
    ++len_;
    return *this;
  }
  JsonWriter& raw_integer(long long v);
  JsonWriter& raw_number(double v);
  JsonWriter& raw_integral_or_number(double v);

 private:
  /// Where the next `n` bytes go; the buffer grows geometrically.
  char* room(std::size_t n) {
    if (buf_.size() - len_ < n) grow(n);
    return buf_.data() + len_;
  }
  void grow(std::size_t n);
  /// Writes the comma owed to the previous item, if any.
  void separate() {
    if (need_comma_) raw(',');
    need_comma_ = false;
  }
  JsonWriter& item_done() {
    need_comma_ = true;
    return *this;
  }

  std::string buf_;      ///< text in [0, len_); the rest is headroom
  std::size_t len_ = 0;
  bool need_comma_ = false;
};

enum class JsonKind { kNull, kBool, kNumber, kString, kArray, kObject };

/// One JSON value; a tree of these is a document.  Object member order
/// is preserved (lookup is linear — report objects are small).
class JsonValue {
 public:
  JsonKind kind() const { return kind_; }
  bool is_null() const { return kind_ == JsonKind::kNull; }
  bool is_bool() const { return kind_ == JsonKind::kBool; }
  bool is_number() const { return kind_ == JsonKind::kNumber; }
  bool is_string() const { return kind_ == JsonKind::kString; }
  bool is_array() const { return kind_ == JsonKind::kArray; }
  bool is_object() const { return kind_ == JsonKind::kObject; }

  /// Typed accessors; requires the matching kind.
  bool as_bool() const;
  double as_number() const;
  long long as_int() const;  ///< as_number truncated toward zero
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;  ///< array elements
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member by key, or nullptr when absent / not an object.
  const JsonValue* find(const std::string& key) const;

  /// find() that also requires the member's kind; nullptr otherwise.
  const JsonValue* find(const std::string& key, JsonKind kind) const;

  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  JsonKind kind_ = JsonKind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one complete JSON document.  On failure returns false and
/// sets `*error` to "line L: message".
bool parse_json(const std::string& text, JsonValue* out, std::string* error);

}  // namespace qosctrl::util
