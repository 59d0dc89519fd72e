// Backend selection: CPUID detection, the QOSCTRL_FORCE_SCALAR /
// QOSCTRL_SIMD overrides, and the per-backend table registry.
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "media/simd/kernels_impl.h"
#include "util/check.h"

namespace qosctrl::media::simd {
namespace {

const KernelTable kScalarTable = {
    "scalar",           Backend::kScalar, scalar_sad_16x16,
    scalar_sad_16x16_x4, scalar_halfpel_16x16, scalar_fdct8, scalar_idct8,
    scalar_quantize8x8,  scalar_reconstruct8x8, scalar_sum_sq_diff,
    scalar_ssim_stats_8x8,
};

/// The CPU can execute `b`'s kernels *and* they were compiled in.
bool cpu_supports(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kSse2:
      // SSE2 is part of the x86-64 ABI; table presence is the check.
      return sse2_kernel_table() != nullptr;
    case Backend::kAvx2:
      if (avx2_kernel_table() == nullptr) return false;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Backend::kNeon:
      return neon_kernel_table() != nullptr;
  }
  return false;
}

Backend detect_best() {
  if (cpu_supports(Backend::kAvx2)) return Backend::kAvx2;
  if (cpu_supports(Backend::kSse2)) return Backend::kSse2;
  if (cpu_supports(Backend::kNeon)) return Backend::kNeon;
  return Backend::kScalar;
}

bool ascii_iequals(const char* a, const char* b) {
  for (; *a != '\0' && *b != '\0'; ++a, ++b) {
    const char ca = (*a >= 'A' && *a <= 'Z') ? *a - 'A' + 'a' : *a;
    const char cb = (*b >= 'A' && *b <= 'Z') ? *b - 'A' + 'a' : *b;
    if (ca != cb) return false;
  }
  return *a == *b;
}

std::atomic<const KernelTable*>& active_table_slot() {
  static std::atomic<const KernelTable*> slot{[] {
#ifdef QOSCTRL_FORCE_SCALAR
    constexpr bool kCompiledForceScalar = true;
#else
    constexpr bool kCompiledForceScalar = false;
#endif
    const Backend chosen = resolve_backend(
        detect_best(), kCompiledForceScalar,
        std::getenv("QOSCTRL_FORCE_SCALAR"), std::getenv("QOSCTRL_SIMD"),
        &cpu_supports);
    return &kernels_for(chosen);
  }()};
  return slot;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSse2:
      return "sse2";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "unknown";
}

Backend parse_backend(const char* s, Backend fallback) {
  if (s == nullptr) return fallback;
  for (const Backend b : {Backend::kScalar, Backend::kSse2, Backend::kAvx2,
                          Backend::kNeon}) {
    if (ascii_iequals(s, backend_name(b))) return b;
  }
  return fallback;
}

bool env_flag_set(const char* value) {
  if (value == nullptr) return false;
  return !(value[0] == '\0' || ascii_iequals(value, "0") ||
           ascii_iequals(value, "off") || ascii_iequals(value, "false"));
}

Backend resolve_backend(Backend detected, bool compiled_force_scalar,
                        const char* force_scalar_env, const char* simd_env,
                        bool (*supported)(Backend)) {
  if (compiled_force_scalar || env_flag_set(force_scalar_env)) {
    return Backend::kScalar;
  }
  if (simd_env != nullptr) {
    const Backend requested = parse_backend(simd_env, detected);
    if (supported(requested)) return requested;
  }
  return detected;
}

bool backend_supported(Backend b) { return cpu_supports(b); }

Backend detected_backend() { return detect_best(); }

const KernelTable& kernels_for(Backend b) {
  QC_EXPECT(backend_supported(b),
            "requested kernel backend is not supported on this machine");
  switch (b) {
    case Backend::kScalar:
      return kScalarTable;
    case Backend::kSse2:
      return *sse2_kernel_table();
    case Backend::kAvx2:
      return *avx2_kernel_table();
    case Backend::kNeon:
      return *neon_kernel_table();
  }
  return kScalarTable;
}

const KernelTable& active_kernels() {
  return *active_table_slot().load(std::memory_order_acquire);
}

Backend active_backend() { return active_kernels().backend; }

Backend set_backend_for_testing(Backend b) {
  const Backend previous = active_backend();
  active_table_slot().store(&kernels_for(b), std::memory_order_release);
  return previous;
}

}  // namespace qosctrl::media::simd
