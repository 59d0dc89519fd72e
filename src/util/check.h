// Lightweight precondition / invariant checking used across the library.
//
// The library follows the C++ Core Guidelines I.6 / I.8 style: public
// interfaces state their expectations and enforce them.  Violations are
// programming errors, so they terminate with a message rather than throw.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace qosctrl::util {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const char* msg) {
  std::fprintf(stderr, "qosctrl: check `%s` failed at %s:%d: %s\n", expr,
               file, line, msg);
  std::abort();
}

}  // namespace qosctrl::util

// Precondition on arguments of a public function.
#define QC_EXPECT(cond, msg)                                              \
  do {                                                                    \
    if (!(cond)) ::qosctrl::util::check_failed(#cond, __FILE__, __LINE__, \
                                               msg);                     \
  } while (0)

// Internal invariant; same behaviour, different intent.
#define QC_ENSURE(cond, msg) QC_EXPECT(cond, msg)

// Debug-only check for per-pixel / per-element invariants inside hot
// loops: full QC_EXPECT behaviour in debug builds, zero cost in release
// builds (NDEBUG).  Public API boundaries keep QC_EXPECT, which is
// always on.
#ifdef NDEBUG
#define QC_DCHECK(cond, msg) \
  do {                       \
  } while (0)
#else
#define QC_DCHECK(cond, msg) QC_EXPECT(cond, msg)
#endif

namespace qosctrl::util {

/// True where QC_DCHECK checks: for a debug check that needs data the
/// release build does not make (an in-sync frame's bytes, say).
#ifdef NDEBUG
inline constexpr bool kDebugChecks = false;
#else
inline constexpr bool kDebugChecks = true;
#endif

}  // namespace qosctrl::util
