// NEON kernels (AArch64): `vabal`-based macroblock SAD, single and
// 4-candidate batch — the hot motion-search path the gcc-aarch64-qemu
// CI leg exercises.  Each row pair feeds two widening
// absolute-difference accumulates (vabal_u8 on the low/high halves)
// into a uint16x8 accumulator; four rows fit comfortably (a lane
// accumulates at most 8 * 255 = 2040), and the 4-row horizontal sum
// keeps the early-exit checkpoint bit-identical with the scalar /
// SSE2 / AVX2 kernels.
//
// Half-pel interpolation, the fixed-point DCT, the quantizer, the
// fused inverse path and the SSIM block moments still alias the
// scalar kernels — `vrhadd`-based half-pel and vector block moments
// are the remaining ROADMAP follow-ups.
#include "media/simd/kernels_impl.h"

#if defined(__aarch64__) || defined(_M_ARM64)

#include <arm_neon.h>

namespace qosctrl::media::simd {
namespace {

constexpr int kMb = 16;

/// Widening absolute-difference accumulate of one 16-pixel row.
inline uint16x8_t row_abd(uint16x8_t acc, const std::uint8_t* c,
                          const std::uint8_t* r) {
  const uint8x16_t vc = vld1q_u8(c);
  const uint8x16_t vr = vld1q_u8(r);
  acc = vabal_u8(acc, vget_low_u8(vc), vget_low_u8(vr));
  return vabal_u8(acc, vget_high_u8(vc), vget_high_u8(vr));
}

std::int64_t neon_sad_16x16(const std::uint8_t* cur, const std::uint8_t* ref,
                            std::ptrdiff_t ref_stride, std::int64_t best) {
  std::int64_t acc = 0;
  for (int y = 0; y < kMb; y += 4) {
    uint16x8_t v = vdupq_n_u16(0);
    for (int dy = 0; dy < 4; ++dy) {
      v = row_abd(v, cur + (y + dy) * kMb, ref + (y + dy) * ref_stride);
    }
    acc += vaddlvq_u16(v);
    if (acc >= best) return acc;  // same 4-row checkpoint as scalar
  }
  return acc;
}

void neon_sad_16x16_x4(const std::uint8_t* cur,
                       const std::uint8_t* const ref[4],
                       std::ptrdiff_t ref_stride, std::int64_t best,
                       std::int64_t out[4]) {
  out[0] = out[1] = out[2] = out[3] = 0;
  for (int y = 0; y < kMb; y += 4) {
    uint16x8_t acc0 = vdupq_n_u16(0);
    uint16x8_t acc1 = vdupq_n_u16(0);
    uint16x8_t acc2 = vdupq_n_u16(0);
    uint16x8_t acc3 = vdupq_n_u16(0);
    for (int dy = 0; dy < 4; ++dy) {
      const std::uint8_t* c = cur + (y + dy) * kMb;
      const std::ptrdiff_t off = (y + dy) * ref_stride;
      acc0 = row_abd(acc0, c, ref[0] + off);
      acc1 = row_abd(acc1, c, ref[1] + off);
      acc2 = row_abd(acc2, c, ref[2] + off);
      acc3 = row_abd(acc3, c, ref[3] + off);
    }
    out[0] += vaddlvq_u16(acc0);
    out[1] += vaddlvq_u16(acc1);
    out[2] += vaddlvq_u16(acc2);
    out[3] += vaddlvq_u16(acc3);
    // Same all-candidates-pruned 4-row checkpoint as scalar.
    if (out[0] >= best && out[1] >= best && out[2] >= best &&
        out[3] >= best) {
      return;
    }
  }
}

const KernelTable kNeonTable = {
    "neon",           Backend::kNeon,       neon_sad_16x16,
    neon_sad_16x16_x4, scalar_halfpel_16x16, scalar_fdct8,
    scalar_quantize8x8, scalar_reconstruct8x8, scalar_ssim_stats_8x8,
};

}  // namespace

const KernelTable* neon_kernel_table() { return &kNeonTable; }

}  // namespace qosctrl::media::simd

#else  // !AArch64

namespace qosctrl::media::simd {
const KernelTable* neon_kernel_table() { return nullptr; }
}  // namespace qosctrl::media::simd

#endif
