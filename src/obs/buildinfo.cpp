#include "obs/buildinfo.h"

#include <sstream>

#include "media/simd/kernels.h"
#include "util/json.h"

// Generated into <build>/generated by CMake at configure time; absent
// under build systems that skip the generation step.
#if __has_include("qosctrl_buildinfo.h")
#include "qosctrl_buildinfo.h"
#endif
#ifndef QOSCTRL_GIT_DESCRIBE
#define QOSCTRL_GIT_DESCRIBE "unknown"
#endif

namespace qosctrl::obs {

BuildInfo build_info() {
  BuildInfo info;
  info.version = QOSCTRL_GIT_DESCRIBE;
#if defined(__VERSION__)
#if defined(__clang__)
  info.compiler = "clang " __VERSION__;
#elif defined(__GNUC__)
  info.compiler = "gcc " __VERSION__;
#else
  info.compiler = __VERSION__;
#endif
#else
  info.compiler = "unknown";
#endif
  info.simd_backend = media::simd::backend_name(media::simd::active_backend());
  return info;
}

std::string version_line(const char* tool) {
  const BuildInfo info = build_info();
  std::ostringstream os;
  os << tool << ' ' << info.version << " (" << info.compiler
     << ", simd=" << info.simd_backend << ")";
  return os.str();
}

std::string build_json_fields() {
  const BuildInfo info = build_info();
  util::JsonWriter w;
  w.key("version").string(info.version);
  w.key("compiler").string(info.compiler);
  w.key("simd_backend").string(info.simd_backend);
  return w.take();
}

}  // namespace qosctrl::obs
