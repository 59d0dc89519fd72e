// The dispatch layer itself: backend name/parse round-trips, the
// QOSCTRL_SIMD resolution, CPUID-derived
// support monotonicity, and the in-process test override.
#include <gtest/gtest.h>

#include "media/simd/kernels.h"

namespace qosctrl::media::simd {
namespace {

constexpr Backend kAll[] = {Backend::kScalar, Backend::kSse2, Backend::kAvx2,
                            Backend::kNeon};

bool all_supported(Backend) { return true; }
bool scalar_only(Backend b) { return b == Backend::kScalar; }

TEST(SimdDispatch, BackendNamesParseRoundTrip) {
  for (const Backend b : kAll) {
    EXPECT_EQ(parse_backend(backend_name(b), Backend::kScalar), b);
  }
  EXPECT_EQ(parse_backend("AVX2", Backend::kScalar), Backend::kAvx2);
  EXPECT_EQ(parse_backend("Sse2", Backend::kAvx2), Backend::kSse2);
  EXPECT_EQ(parse_backend("not-a-backend", Backend::kSse2), Backend::kSse2);
  EXPECT_EQ(parse_backend("", Backend::kAvx2), Backend::kAvx2);
  EXPECT_EQ(parse_backend(nullptr, Backend::kScalar), Backend::kScalar);
}

TEST(SimdDispatch, SimdEnvRequestHonoredOnlyWhenSupported) {
  EXPECT_EQ(resolve_backend(Backend::kAvx2, "sse2", &all_supported),
            Backend::kSse2);
  EXPECT_EQ(resolve_backend(Backend::kAvx2, "scalar", &all_supported),
            Backend::kScalar);
  // Unset keeps the detected backend.
  EXPECT_EQ(resolve_backend(Backend::kAvx2, nullptr, &all_supported),
            Backend::kAvx2);
  // An unsupported request falls back to the detected backend.
  EXPECT_EQ(resolve_backend(Backend::kScalar, "avx2", &scalar_only),
            Backend::kScalar);
  // Garbage parses to the detected backend and stays there.
  EXPECT_EQ(resolve_backend(Backend::kSse2, "avx512", &all_supported),
            Backend::kSse2);
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndDetectedIsSupported) {
  EXPECT_TRUE(backend_supported(Backend::kScalar));
  EXPECT_TRUE(backend_supported(detected_backend()));
  // On x86, AVX2 support implies the SSE2 baseline.
  if (backend_supported(Backend::kAvx2)) {
    EXPECT_TRUE(backend_supported(Backend::kSse2));
  }
}

TEST(SimdDispatch, TablesCarryTheirOwnBackendTag) {
  for (const Backend b : kAll) {
    if (!backend_supported(b)) continue;
    const KernelTable& t = kernels_for(b);
    EXPECT_EQ(t.backend, b);
    EXPECT_NE(t.name, nullptr);
    EXPECT_NE(t.sad_16x16, nullptr);
    EXPECT_NE(t.sad_16x16_x4, nullptr);
    EXPECT_NE(t.halfpel_16x16, nullptr);
    EXPECT_NE(t.fdct8, nullptr);
    EXPECT_NE(t.quantize8x8, nullptr);
    EXPECT_NE(t.reconstruct8x8, nullptr);
    EXPECT_NE(t.ssim_stats_8x8, nullptr);
  }
}

TEST(SimdDispatch, TestingOverrideSwitchesAndRestores) {
  const Backend original = active_backend();
  {
    const ScopedBackendRestore restore;
    const Backend prev = set_backend_for_testing(Backend::kScalar);
    EXPECT_EQ(prev, original);
    EXPECT_EQ(active_backend(), Backend::kScalar);
    EXPECT_EQ(active_kernels().backend, Backend::kScalar);
  }
  EXPECT_EQ(active_backend(), original);
}

}  // namespace
}  // namespace qosctrl::media::simd
