// Small argument-parsing and file-output helpers shared by the CLI
// front-ends (qosfarm, qoseval).  Header-only; tools/ is not part of
// the library, so this lives next to the mains.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

namespace qosctrl::cli {

/// A decimal int; rejects trailing junk and values outside int (strtol
/// would hand back a long that truncates, e.g. 4294967298 -> 2).
inline bool parse_int(const char* s, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

/// A decimal unsigned 64-bit value; no sign, no wrap-around.
inline bool parse_u64(const char* s, std::uint64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(*s))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

/// A positive cycle count that fits a signed 64-bit rt::Cycles: values
/// above INT64_MAX would wrap negative (and, as a window, switch
/// sampling off).
inline bool parse_positive_cycles(const char* s, std::int64_t* out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, &v) || v == 0 ||
      v > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    return false;
  }
  *out = static_cast<std::int64_t>(v);
  return true;
}

/// Any finite double (range checks are the caller's); strtod's "nan",
/// "inf" and overflowing literals are rejected.
inline bool parse_double(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// A fraction in [0, 1].
inline bool parse_fraction(const char* s, double* out) {
  double v = 0.0;
  if (!parse_double(s, &v) || v < 0.0 || v > 1.0) return false;
  *out = v;
  return true;
}

/// Splits "a,b,c" into items; empty input yields an empty vector.
inline std::vector<std::string> split_commas(const char* s) {
  std::vector<std::string> out;
  const std::string str(s);
  std::size_t pos = 0;
  while (pos < str.size()) {
    std::size_t comma = str.find(',', pos);
    if (comma == std::string::npos) comma = str.size();
    out.push_back(str.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

/// Comma-separated positive finite doubles.
inline bool parse_double_list(const char* s, std::vector<double>* out) {
  out->clear();
  for (const std::string& item : split_commas(s)) {
    double v = 0.0;
    if (!parse_double(item.c_str(), &v) || v <= 0.0) return false;
    out->push_back(v);
  }
  return !out->empty();
}

/// "LO" or "LO:HI" into [lo, hi] (hi = lo when no colon).
inline bool parse_int_range(const char* s, int* lo, int* hi) {
  const char* colon = std::strchr(s, ':');
  if (colon == nullptr) {
    if (!parse_int(s, lo)) return false;
    *hi = *lo;
    return true;
  }
  const std::string first(s, colon);
  return parse_int(first.c_str(), lo) && parse_int(colon + 1, hi);
}

/// Writes `content` (plus a trailing newline) to `path`; complains on
/// stderr as "<tool>: cannot write <path>" on failure.
inline bool write_file(const char* tool, const char* path,
                       const std::string& content) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path);
    return false;
  }
  f << content << '\n';
  return true;
}

}  // namespace qosctrl::cli
