// Build / run provenance for reports and benchmarks: which sources,
// which compiler, and which SIMD backend actually produced a number.
// Every JSON report embeds this as its "build" header and every CLI
// answers --version with it, so a report or a BENCH_micro.json entry
// is attributable long after the run.
#pragma once

#include <string>

namespace qosctrl::obs {

struct BuildInfo {
  /// `git describe --tags --always --dirty` captured at CMake
  /// configure time ("unknown" outside a git checkout).
  const char* version;
  /// Compiler identification (__VERSION__).
  const char* compiler;
  /// The SIMD backend the kernel dispatcher actually selected at
  /// runtime — the QOSCTRL_SIMD override included.
  const char* simd_backend;
};

/// The current process's provenance.  simd_backend reflects the live
/// dispatch decision, so call it after any test-only backend override.
BuildInfo build_info();

/// One-line version banner: "<tool> <version> (<compiler>, simd=<b>)".
std::string version_line(const char* tool);

/// The "build" JSON object body (no braces):
/// "version":"...","compiler":"...","simd_backend":"...".
std::string build_json_fields();

}  // namespace qosctrl::obs
