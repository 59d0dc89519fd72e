// Internal declarations shared by the per-backend kernel translation
// units and the dispatcher.  Deliberately minimal: the AVX2 TU is
// compiled with -mavx2, so it must not pull in inline functions that
// other TUs also instantiate (the linker keeps one copy per inline
// function, and a copy emitted with AVX2 codegen must never be the
// one a pre-AVX2 machine executes).  Only plain function declarations
// and the fixed-point DCT constants live here.
#pragma once

#include <cstddef>
#include <cstdint>

#include "media/simd/kernels.h"

namespace qosctrl::media::simd {

// ---------------------------------------------------------------------------
// Fixed-point LLM DCT constants (libjpeg "islow" network).  Each 1-D
// pass computes the sqrt(8)-scaled 8-point DCT (or its inverse) with
// constants in kDctConstBits fixed point; the final descale folds both
// passes' scale factors plus the 2^3 = (sqrt 8)^2 down to the
// orthonormal range in a single rounded shift.  kDctPass1Bits keeps
// the inter-pass rounding error far below one output unit.

inline constexpr int kDctConstBits = 15;
inline constexpr int kDctPass1Bits = 9;

constexpr std::int64_t dct_fix(double x) {
  return static_cast<std::int64_t>(x * (INT64_C(1) << kDctConstBits) + 0.5);
}

inline constexpr std::int64_t kFix_0_298631336 = dct_fix(0.298631336);
inline constexpr std::int64_t kFix_0_390180644 = dct_fix(0.390180644);
inline constexpr std::int64_t kFix_0_541196100 = dct_fix(0.541196100);
inline constexpr std::int64_t kFix_0_765366865 = dct_fix(0.765366865);
inline constexpr std::int64_t kFix_0_899976223 = dct_fix(0.899976223);
inline constexpr std::int64_t kFix_1_175875602 = dct_fix(1.175875602);
inline constexpr std::int64_t kFix_1_501321110 = dct_fix(1.501321110);
inline constexpr std::int64_t kFix_1_847759065 = dct_fix(1.847759065);
inline constexpr std::int64_t kFix_1_961570560 = dct_fix(1.961570560);
inline constexpr std::int64_t kFix_2_053119869 = dct_fix(2.053119869);
inline constexpr std::int64_t kFix_2_562915447 = dct_fix(2.562915447);
inline constexpr std::int64_t kFix_3_072711026 = dct_fix(3.072711026);

// ---------------------------------------------------------------------------
// Scalar reference kernels (always available; the oracle every SIMD
// backend is pinned against).

std::int64_t scalar_sad_16x16(const std::uint8_t* cur,
                              const std::uint8_t* ref,
                              std::ptrdiff_t ref_stride, std::int64_t best);
void scalar_sad_16x16_x4(const std::uint8_t* cur,
                         const std::uint8_t* const ref[4],
                         std::ptrdiff_t ref_stride, std::int64_t best,
                         std::int64_t out[4]);
void scalar_halfpel_16x16(const std::uint8_t* src, std::ptrdiff_t stride,
                          int fx, int fy, std::uint8_t* dst);
void scalar_fdct8(const std::int16_t* in, std::int32_t* out);
void scalar_idct8(const std::int32_t* in, std::int16_t* out);
int scalar_quantize8x8(std::int32_t* block, int qp, std::uint32_t mul,
                       int shift);
void scalar_reconstruct8x8(const std::int32_t* levels, std::int32_t step,
                           const std::uint8_t* pred,
                           std::ptrdiff_t pred_stride, std::uint8_t* dst,
                           std::ptrdiff_t dst_stride);
std::int64_t scalar_sum_sq_diff(const std::uint8_t* a, const std::uint8_t* b,
                                std::size_t n);
void scalar_ssim_stats_8x8(const std::uint8_t* a, std::ptrdiff_t a_stride,
                           const std::uint8_t* b, std::ptrdiff_t b_stride,
                           std::int64_t out[5]);

// ---------------------------------------------------------------------------
// Per-backend tables.  Each accessor returns nullptr when the backend
// is not compiled in (non-x86 build, or a compiler without AVX2
// support); whether the *CPU* can run the AVX2 table is the
// dispatcher's CPUID check, not these.

const KernelTable* sse2_kernel_table();  ///< null off x86
const KernelTable* avx2_kernel_table();  ///< null unless built with AVX2
const KernelTable* neon_kernel_table();  ///< null off AArch64

}  // namespace qosctrl::media::simd
