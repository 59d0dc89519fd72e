// The reports' JSON format in one module: an append-only writer that
// every report emitter builds its text with (the CSV tables and the
// text summaries too, through its raw appends, csv_table and
// text_row), and a minimal document model with a recursive-descent
// parser.
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
#include <type_traits>
#include <utility>
#include <vector>

namespace qosctrl::util {

/// A double that JsonWriter::value() and csv_cell() write as an integer
/// when it is integral (cycle thresholds, counts) and at round-trip
/// precision otherwise, as JsonWriter::integral_or_number() does.
struct IntegralOrNumber {
  double v;
};

/// Append-only text builder for the JSON reports (and, through its raw
/// appends, the CSV tables: csv_table below).  Integers and doubles are
/// written with std::to_chars; a double prints as printf's "%.17g"
/// would, which round-trips, and must be finite (checked: JSON has no
/// infinities).  String values are escaped per RFC 8259: the quote,
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
  JsonWriter& unsigned_integer(unsigned long long v);
  JsonWriter& number(double v);
  /// An integral value within the int64 range as an integer ("3", not
  /// "3.0"), anything else as number().
  JsonWriter& integral_or_number(double v);
  JsonWriter& boolean(bool b);
  /// A value by its C++ type: bool as boolean(), text as string(),
  /// floating point as number(), IntegralOrNumber as
  /// integral_or_number(), unsigned types as unsigned_integer(), any
  /// other arithmetic type as integer(), and a range (a vector, say) as
  /// an array of its elements' values.
  template <class T>
  JsonWriter& value(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      return boolean(v);
    } else if constexpr (std::is_convertible_v<T, std::string_view>) {
      return string(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      return number(v);
    } else if constexpr (std::is_same_v<T, IntegralOrNumber>) {
      return integral_or_number(v.v);
    } else if constexpr (std::is_unsigned_v<T>) {
      return unsigned_integer(v);
    } else if constexpr (requires { v.begin(); }) {
      begin_array();
      for (const auto& item : v) value(item);
      return end_array();
    } else {
      return integer(static_cast<long long>(v));
    }
  }
  /// A text-summary pair's " name="; the value follows, written as in
  /// JSON.  Names are written verbatim, as key() writes them.
  JsonWriter& pair(std::string_view name) {
    need_comma_ = false;
    return raw(' ').raw(name).raw('=');
  }
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
    if (text.empty()) return *this;  // a default view's data() is null
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
  JsonWriter& raw_unsigned(unsigned long long v);
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

/// Appends one CSV cell, typed as JsonWriter::value() types it: text
/// verbatim, integers (and bools, as 0/1) whole, doubles at round-trip
/// precision.
template <class T>
void csv_cell(JsonWriter& w, const T& v) {
  if constexpr (std::is_convertible_v<T, std::string_view>) {
    w.raw(std::string_view(v));
  } else if constexpr (std::is_floating_point_v<T>) {
    w.raw_number(v);
  } else if constexpr (std::is_same_v<T, IntegralOrNumber>) {
    w.raw_integral_or_number(v.v);
  } else if constexpr (std::is_unsigned_v<T>) {
    w.raw_unsigned(v);
  } else {
    w.raw_integer(static_cast<long long>(v));
  }
}

/// Appends a CSV table: a header line, then one line per row, each
/// ended by a newline.  `columns(row, column)` calls `column(name,
/// value)` once per column, in order; the header takes the names from
/// `columns(header_row, ...)`.  No cell may hold a comma or a newline.
template <class Row, class Rows, class Columns>
void csv_table(JsonWriter& w, const Row& header_row, const Rows& rows,
               Columns&& columns) {
  std::string_view sep;
  columns(header_row, [&](std::string_view name, const auto&) {
    w.raw(sep).raw(name);
    sep = ",";
  });
  for (const auto& row : rows) {
    w.raw('\n');
    sep = {};
    columns(row, [&](std::string_view, const auto& value) {
      csv_cell(w.raw(sep), value);
      sep = ",";
    });
  }
  w.raw('\n');
}

/// Appends one row of a text summary: " name=value" for each column
/// `columns(row..., column)` names, in order, each value as
/// JsonWriter::value() writes it, then a newline.  The caller writes
/// the row's label first.  Given the list a JSON object is written
/// from, the row holds that object's members.
template <class Columns, class... Row>
void text_row(JsonWriter& w, Columns&& columns, const Row&... row) {
  columns(row..., [&w](auto name, const auto& v) { w.pair(name).value(v); });
  w.raw('\n');
}

enum class JsonKind { kNull, kBool, kNumber, kString, kArray, kObject };

/// One JSON value; a tree of these is a document.  Object member order
/// is preserved (lookup is linear — report objects are small).
class JsonValue {
 public:
  JsonKind kind() const { return kind_; }
  bool is_null() const { return kind_ == JsonKind::kNull; }
  bool is_number() const { return kind_ == JsonKind::kNumber; }
  bool is_array() const { return kind_ == JsonKind::kArray; }
  bool is_object() const { return kind_ == JsonKind::kObject; }

  /// Typed accessors; requires the matching kind.
  bool as_bool() const;
  double as_number() const;
  /// True for a number with an exact int64 value: integral and within
  /// [-2^63, 2^63).
  bool is_int() const;
  long long as_int() const;  ///< requires is_int()
  /// A number written as an integer (no fraction, no exponent): its
  /// token exactly as parsed, so a uint64 past 2^53 keeps every digit.
  /// Empty for any other number.  Requires a number.
  const std::string& integer_token() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;  ///< array elements
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member by key, or nullptr when absent / not an object.
  const JsonValue* find(const std::string& key) const;

  /// find() that also requires the member's kind; nullptr otherwise.
  const JsonValue* find(const std::string& key, JsonKind kind) const;

  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d, std::string integer_token = {});
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  JsonKind kind_ = JsonKind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  ///< a string's text, or a number's integer token
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one complete JSON document.  On failure returns false and
/// sets `*error` to "line L: message".
bool parse_json(const std::string& text, JsonValue* out, std::string* error);

}  // namespace qosctrl::util
