// Command-line parsing and file output shared by qosfarm, qoseval and
// qosreport.  Each tool declares its flags once, as a table of Flag
// entries; that table drives both the parse and the usage synopsis.
// What every flag means is documented in docs/cli.md.  Header-only;
// tools/ is not part of the library, so this lives next to the mains.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "farm/faults.h"
#include "obs/buildinfo.h"
#include "obs/slo.h"

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

/// A cycle count: an unsigned decimal no larger than INT64_MAX, the
/// largest rt::Cycles (anything above would wrap negative).
inline bool parse_cycles(const char* s, std::int64_t* out) {
  std::uint64_t v = 0;
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (!parse_u64(s, &v) || v > kMax) return false;
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

/// "A,B,..." with each item parsed by `parse_item(const char*, T*)`.
/// An empty list, or an empty item ("a,,b", or "a," with its trailing
/// comma), is rejected.  `out` changes only on success.
template <class T, class ParseItem>
bool parse_list(const char* s, std::vector<T>* out, ParseItem parse_item) {
  std::vector<T> items;
  const char* p = s;
  while (true) {
    const char* comma = std::strchr(p, ',');
    const std::string item = comma ? std::string(p, comma) : std::string(p);
    T v{};
    if (item.empty() || !parse_item(item.c_str(), &v)) return false;
    items.push_back(std::move(v));
    if (comma == nullptr) break;
    p = comma + 1;
  }
  *out = std::move(items);
  return true;
}

/// "P@T" (permanent) or "P@T+R" (transient, repairs after R cycles);
/// T + R must stay a cycle count.
inline bool parse_failure(const char* s, farm::FailureEvent* ev) {
  const char* at = std::strchr(s, '@');
  if (!at || at == s) return false;
  const std::string proc(s, at);
  if (!parse_int(proc.c_str(), &ev->processor) || ev->processor < 0) {
    return false;
  }
  const char* plus = std::strchr(at + 1, '+');
  if (plus == nullptr) return parse_cycles(at + 1, &ev->time);
  const std::string when(at + 1, plus);
  return parse_cycles(when.c_str(), &ev->time) &&
         parse_cycles(plus + 1, &ev->repair) && ev->repair > 0 &&
         ev->repair <= std::numeric_limits<std::int64_t>::max() - ev->time;
}

/// One command-line flag: its name, the value placeholder the usage
/// prints after it (nullptr for a switch, which takes no value), and a
/// setter that stores the value and returns false to reject it.
struct Flag {
  const char* name;
  const char* placeholder;
  std::function<bool(const char* value)> set;
};

/// A switch: sets `*out` when present.
inline Flag enable(const char* name, bool* out) {
  return {name, nullptr, [out](const char*) {
            *out = true;
            return true;
          }};
}

/// `flag`, also recording in `*was_given` that the command line set it.
inline Flag given(Flag flag, bool* was_given) {
  flag.set = [set = std::move(flag.set), was_given](const char* v) {
    *was_given = true;
    return set(v);
  };
  return flag;
}

/// Text kept as given (a path, a title).
inline Flag text(const char* name, const char* placeholder,
                 const char** out) {
  return {name, placeholder, [out](const char* v) {
            *out = v;
            return true;
          }};
}

/// An int in [lo, hi].
inline Flag integer(const char* name, const char* placeholder, int* out,
                    int lo = std::numeric_limits<int>::min(),
                    int hi = std::numeric_limits<int>::max()) {
  return {name, placeholder, [out, lo, hi](const char* v) {
            int x = 0;
            if (!parse_int(v, &x) || x < lo || x > hi) return false;
            *out = x;
            return true;
          }};
}

/// "LO" or "LO:HI" (HI = LO without the colon) with min <= LO <= HI.
inline Flag int_range(const char* name, const char* placeholder, int* lo,
                      int* hi, int min) {
  return {name, placeholder, [lo, hi, min](const char* v) {
            const char* colon = std::strchr(v, ':');
            int a = 0, b = 0;
            if (colon == nullptr) {
              if (!parse_int(v, &a)) return false;
              b = a;
            } else if (!parse_int(std::string(v, colon).c_str(), &a) ||
                       !parse_int(colon + 1, &b)) {
              return false;
            }
            if (a < min || b < a) return false;
            *lo = a;
            *hi = b;
            return true;
          }};
}

inline Flag u64(const char* name, const char* placeholder,
                std::uint64_t* out) {
  return {name, placeholder,
          [out](const char* v) { return parse_u64(v, out); }};
}

/// A cycle count in [lo, hi] (see parse_cycles).
inline Flag cycles(const char* name, const char* placeholder,
                   std::int64_t* out, std::int64_t lo = 0,
                   std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  return {name, placeholder, [out, lo, hi](const char* v) {
            std::int64_t c = 0;
            if (!parse_cycles(v, &c) || c < lo || c > hi) return false;
            *out = c;
            return true;
          }};
}

inline Flag fraction(const char* name, const char* placeholder,
                     double* out) {
  return {name, placeholder,
          [out](const char* v) { return parse_fraction(v, out); }};
}

/// A finite double strictly above `floor`.
inline Flag real_above(const char* name, const char* placeholder,
                       double* out, double floor) {
  return {name, placeholder, [out, floor](const char* v) {
            double x = 0.0;
            if (!parse_double(v, &x) || x <= floor) return false;
            *out = x;
            return true;
          }};
}

/// One value through a `parse(const char*, T*)` name lookup, such as
/// sched::parse_policy_name.
template <class T, class Parse>
Flag named(const char* name, const char* placeholder, T* out, Parse parse) {
  return {name, placeholder,
          [out, parse](const char* v) { return parse(v, out); }};
}

/// A comma list (see parse_list); a repeated flag replaces the list.
template <class T, class ParseItem>
Flag list(const char* name, const char* placeholder, std::vector<T>* out,
          ParseItem parse_item) {
  return {name, placeholder, [out, parse_item](const char* v) {
            return parse_list(v, out, parse_item);
          }};
}

/// A repeatable flag: each occurrence appends one value parsed by
/// `parse(const char*, T*)`.
template <class T, class Parse>
Flag append(const char* name, const char* placeholder, std::vector<T>* out,
            Parse parse) {
  return {name, placeholder, [out, parse](const char* v) {
            T item{};
            if (!parse(v, &item)) return false;
            out->push_back(std::move(item));
            return true;
          }};
}

/// The repeatable `--slo SPEC`.  A spec the grammar rejects prints the
/// reason on stderr.
inline Flag slo(const char* tool, std::vector<obs::SloSpec>* out) {
  return append("--slo", "SPEC", out,
                [tool](const char* v, obs::SloSpec* spec) {
                  std::string error;
                  if (obs::parse_slo(v, spec, &error)) return true;
                  std::fprintf(stderr, "%s: --slo: %s\n", tool,
                               error.c_str());
                  return false;
                });
}

/// A tool's command line: `<tool> <command> [flags]`, or `--version`
/// or `--help` (`-h`) in place of the command.
struct CommandLine {
  const char* tool;
  const char* command;
  std::vector<Flag> flags;

  /// The synopsis, generated from the flag table.
  std::string usage() const {
    constexpr std::size_t kWidth = 78;
    const std::string head = std::string("usage: ") + tool + " " + command;
    std::string out = head;
    std::size_t col = head.size();
    for (const Flag& f : flags) {
      std::string item = std::string("[") + f.name;
      if (f.placeholder != nullptr) item += std::string(" ") + f.placeholder;
      item += "]";
      if (col + 1 + item.size() > kWidth) {
        out += "\n" + std::string(head.size(), ' ');
        col = head.size();
      }
      out += " " + item;
      col += 1 + item.size();
    }
    const std::string indent = "\n       " + std::string(tool);
    return out + indent + " --version" + indent + " --help\n";
  }

  /// Prints the usage on stderr; returns 2, the usage-error exit code.
  int usage_error() const {
    std::fputs(usage().c_str(), stderr);
    return 2;
  }

  /// Parses argv into the table's setters.  Returns -1 when the
  /// command should run, or the exit code main should return: 0 after
  /// --version or --help, 2 after a usage error.  A scalar flag given
  /// twice keeps the last value.
  int parse(int argc, char** argv) const {
    if (argc >= 2 && std::strcmp(argv[1], "--version") == 0) {
      std::printf("%s\n", obs::version_line(tool).c_str());
      return 0;
    }
    if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0)) {
      std::fputs(usage().c_str(), stdout);
      return 0;
    }
    if (argc < 2 || std::strcmp(argv[1], command) != 0) return usage_error();
    for (int i = 2; i < argc; ++i) {
      const Flag* flag = nullptr;
      for (const Flag& f : flags) {
        if (std::strcmp(argv[i], f.name) == 0) {
          flag = &f;
          break;
        }
      }
      if (flag == nullptr) {
        std::fprintf(stderr, "%s: unknown option %s\n", tool, argv[i]);
        return usage_error();
      }
      const char* value = "";
      if (flag->placeholder != nullptr) {
        if (i + 1 == argc) {
          std::fprintf(stderr, "%s: %s needs a value\n", tool, flag->name);
          return usage_error();
        }
        value = argv[++i];
      }
      if (!flag->set(value)) {
        std::fprintf(stderr, "%s: bad value for %s: '%s'\n", tool,
                     flag->name, value);
        return usage_error();
      }
    }
    return -1;
  }
};

/// Every admission shard needs a processor; complains on stderr.
inline bool shards_fit(const char* tool, int shards, int procs) {
  if (shards <= procs) return true;
  std::fprintf(stderr, "%s: --shards %d exceeds --procs %d\n", tool, shards,
               procs);
  return false;
}

/// Windowed objectives are meaningless without a series to evaluate
/// over; recovery_latency reads the failure outcomes instead.
/// Complains on stderr about the first objective that needs a window.
inline bool slos_have_window(const char* tool,
                             const std::vector<obs::SloSpec>& slos,
                             std::int64_t ts_window) {
  for (const obs::SloSpec& spec : slos) {
    if (spec.metric != obs::SloMetric::kRecoveryLatency && ts_window == 0) {
      std::fprintf(stderr,
                   "%s: --slo '%s' needs --ts-window (only "
                   "recovery_latency evaluates without the series)\n",
                   tool, spec.text.c_str());
      return false;
    }
  }
  return true;
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
