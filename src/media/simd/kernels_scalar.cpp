// Scalar reference kernels — the semantics every SIMD backend must
// reproduce bit-for-bit.  The SAD early-exit checkpoint is every 4
// rows (not every row) so the partial sums a pruned call returns are
// identical across scalar, SSE2, and AVX2: 4 rows is the natural
// accumulation block of the vector kernels, and coarsening the scalar
// check to match costs nothing measurable while making the contract
// testable with plain EXPECT_EQ.
#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "media/simd/kernels_impl.h"

namespace qosctrl::media::simd {
namespace {

constexpr int kMb = 16;  ///< macroblock edge, kept local (see kernels_impl.h)
constexpr int kN = 8;    ///< transform size

inline std::int64_t descale(std::int64_t x, int n) {
  return (x + (INT64_C(1) << (n - 1))) >> n;
}

/// One forward 8-point pass over `in` (stride 1) writing to `out`
/// (stride 1).  Pass 2 descales the add-only (0, 4) and
/// constant-multiplied outputs down to the orthonormal range; pass 1
/// *up*-scales the add-only outputs by kDctPass1Bits instead,
/// matching the libjpeg bookkeeping.
template <bool kFirstPass>
inline void fdct_pass(const std::int64_t* in, std::int64_t* out) {
  const std::int64_t tmp0 = in[0] + in[7];
  const std::int64_t tmp7 = in[0] - in[7];
  const std::int64_t tmp1 = in[1] + in[6];
  const std::int64_t tmp6 = in[1] - in[6];
  const std::int64_t tmp2 = in[2] + in[5];
  const std::int64_t tmp5 = in[2] - in[5];
  const std::int64_t tmp3 = in[3] + in[4];
  const std::int64_t tmp4 = in[3] - in[4];

  // Even part.
  const std::int64_t tmp10 = tmp0 + tmp3;
  const std::int64_t tmp13 = tmp0 - tmp3;
  const std::int64_t tmp11 = tmp1 + tmp2;
  const std::int64_t tmp12 = tmp1 - tmp2;

  const int simple_down = kFirstPass ? 0 : kDctPass1Bits + 3;
  const int const_down = kFirstPass
                             ? kDctConstBits - kDctPass1Bits
                             : kDctConstBits + kDctPass1Bits + 3;

  if (kFirstPass) {
    out[0] = (tmp10 + tmp11) << kDctPass1Bits;
    out[4] = (tmp10 - tmp11) << kDctPass1Bits;
  } else {
    out[0] = descale(tmp10 + tmp11, simple_down);
    out[4] = descale(tmp10 - tmp11, simple_down);
  }

  const std::int64_t z1 = (tmp12 + tmp13) * kFix_0_541196100;
  out[2] = descale(z1 + tmp13 * kFix_0_765366865, const_down);
  out[6] = descale(z1 - tmp12 * kFix_1_847759065, const_down);

  // Odd part.
  std::int64_t z1o = tmp4 + tmp7;
  std::int64_t z2 = tmp5 + tmp6;
  std::int64_t z3 = tmp4 + tmp6;
  std::int64_t z4 = tmp5 + tmp7;
  const std::int64_t z5 = (z3 + z4) * kFix_1_175875602;

  const std::int64_t t4 = tmp4 * kFix_0_298631336;
  const std::int64_t t5 = tmp5 * kFix_2_053119869;
  const std::int64_t t6 = tmp6 * kFix_3_072711026;
  const std::int64_t t7 = tmp7 * kFix_1_501321110;
  z1o = -z1o * kFix_0_899976223;
  z2 = -z2 * kFix_2_562915447;
  z3 = -z3 * kFix_1_961570560 + z5;
  z4 = -z4 * kFix_0_390180644 + z5;

  out[7] = descale(t4 + z1o + z3, const_down);
  out[5] = descale(t5 + z2 + z4, const_down);
  out[3] = descale(t6 + z2 + z3, const_down);
  out[1] = descale(t7 + z1o + z4, const_down);
}

/// One inverse 8-point pass; pass 1 descales by
/// kDctConstBits - kDctPass1Bits, pass 2 by
/// kDctConstBits + kDctPass1Bits + 3.
template <bool kFirstPass>
inline void idct_pass(const std::int64_t* in, std::int64_t* out) {
  // Even part.
  std::int64_t z2 = in[2];
  std::int64_t z3 = in[6];
  const std::int64_t z1 = (z2 + z3) * kFix_0_541196100;
  const std::int64_t tmp2 = z1 - z3 * kFix_1_847759065;
  const std::int64_t tmp3 = z1 + z2 * kFix_0_765366865;

  z2 = in[0];
  z3 = in[4];
  const std::int64_t tmp0 = (z2 + z3) << kDctConstBits;
  const std::int64_t tmp1 = (z2 - z3) << kDctConstBits;

  const std::int64_t tmp10 = tmp0 + tmp3;
  const std::int64_t tmp13 = tmp0 - tmp3;
  const std::int64_t tmp11 = tmp1 + tmp2;
  const std::int64_t tmp12 = tmp1 - tmp2;

  // Odd part.
  std::int64_t t0 = in[7];
  std::int64_t t1 = in[5];
  std::int64_t t2 = in[3];
  std::int64_t t3 = in[1];
  std::int64_t z1o = t0 + t3;
  std::int64_t z2o = t1 + t2;
  std::int64_t z3o = t0 + t2;
  std::int64_t z4o = t1 + t3;
  const std::int64_t z5 = (z3o + z4o) * kFix_1_175875602;

  t0 *= kFix_0_298631336;
  t1 *= kFix_2_053119869;
  t2 *= kFix_3_072711026;
  t3 *= kFix_1_501321110;
  z1o = -z1o * kFix_0_899976223;
  z2o = -z2o * kFix_2_562915447;
  z3o = -z3o * kFix_1_961570560 + z5;
  z4o = -z4o * kFix_0_390180644 + z5;

  t0 += z1o + z3o;
  t1 += z2o + z4o;
  t2 += z2o + z3o;
  t3 += z1o + z4o;

  const int down = kFirstPass ? kDctConstBits - kDctPass1Bits
                              : kDctConstBits + kDctPass1Bits + 3;
  out[0] = descale(tmp10 + t3, down);
  out[7] = descale(tmp10 - t3, down);
  out[1] = descale(tmp11 + t2, down);
  out[6] = descale(tmp11 - t2, down);
  out[2] = descale(tmp12 + t1, down);
  out[5] = descale(tmp12 - t1, down);
  out[3] = descale(tmp13 + t0, down);
  out[4] = descale(tmp13 - t0, down);
}

}  // namespace

std::int64_t scalar_sad_16x16(const std::uint8_t* cur,
                              const std::uint8_t* ref,
                              std::ptrdiff_t ref_stride, std::int64_t best) {
  std::int64_t acc = 0;
  for (int y = 0; y < kMb; y += 4) {
    for (int dy = 0; dy < 4; ++dy) {
      const std::uint8_t* c = cur + (y + dy) * kMb;
      const std::uint8_t* r = ref + (y + dy) * ref_stride;
      int row = 0;
      for (int x = 0; x < kMb; ++x) {
        row += std::abs(static_cast<int>(c[x]) - static_cast<int>(r[x]));
      }
      acc += row;
    }
    if (acc >= best) return acc;  // cannot improve; partial sum suffices
  }
  return acc;
}

void scalar_sad_16x16_x4(const std::uint8_t* cur,
                         const std::uint8_t* const ref[4],
                         std::ptrdiff_t ref_stride, std::int64_t best,
                         std::int64_t out[4]) {
  out[0] = out[1] = out[2] = out[3] = 0;
  for (int y = 0; y < kMb; y += 4) {
    for (int k = 0; k < 4; ++k) {
      std::int64_t acc = 0;
      for (int dy = 0; dy < 4; ++dy) {
        const std::uint8_t* c = cur + (y + dy) * kMb;
        const std::uint8_t* r = ref[k] + (y + dy) * ref_stride;
        int row = 0;
        for (int x = 0; x < kMb; ++x) {
          row += std::abs(static_cast<int>(c[x]) - static_cast<int>(r[x]));
        }
        acc += row;
      }
      out[k] += acc;
    }
    // Stop only when no candidate can win any more (same 4-row
    // checkpoint as the vector backends, so the returned partials are
    // identical everywhere).
    if (out[0] >= best && out[1] >= best && out[2] >= best &&
        out[3] >= best) {
      return;
    }
  }
}

void scalar_halfpel_16x16(const std::uint8_t* src, std::ptrdiff_t stride,
                          int fx, int fy, std::uint8_t* dst) {
  for (int y = 0; y < kMb; ++y) {
    const std::uint8_t* p = src;
    const std::uint8_t* q = src + stride;
    if (fx == 1 && fy == 0) {
      for (int x = 0; x < kMb; ++x) {
        dst[x] = static_cast<std::uint8_t>((p[x] + p[x + 1] + 1) / 2);
      }
    } else if (fx == 0) {  // fy == 1
      for (int x = 0; x < kMb; ++x) {
        dst[x] = static_cast<std::uint8_t>((p[x] + q[x] + 1) / 2);
      }
    } else {
      for (int x = 0; x < kMb; ++x) {
        dst[x] = static_cast<std::uint8_t>(
            (p[x] + p[x + 1] + q[x] + q[x + 1] + 2) / 4);
      }
    }
    src += stride;
    dst += kMb;
  }
}

void scalar_ssim_stats_8x8(const std::uint8_t* a, std::ptrdiff_t a_stride,
                           const std::uint8_t* b, std::ptrdiff_t b_stride,
                           std::int64_t out[5]) {
  std::int64_t sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
  for (int y = 0; y < kN; ++y) {
    const std::uint8_t* pa = a + y * a_stride;
    const std::uint8_t* pb = b + y * b_stride;
    for (int x = 0; x < kN; ++x) {
      const int va = pa[x];
      const int vb = pb[x];
      sa += va;
      sb += vb;
      saa += va * va;
      sbb += vb * vb;
      sab += va * vb;
    }
  }
  out[0] = sa;
  out[1] = sb;
  out[2] = saa;
  out[3] = sbb;
  out[4] = sab;
}

void scalar_fdct8(const std::int16_t* in, std::int32_t* out) {
  std::int64_t row_in[kN];
  std::int64_t ws[kN * kN];
  // Rows.
  for (int y = 0; y < kN; ++y) {
    for (int x = 0; x < kN; ++x) row_in[x] = in[y * kN + x];
    fdct_pass<true>(row_in, ws + y * kN);
  }
  // Columns.
  std::int64_t col_in[kN];
  std::int64_t col_out[kN];
  for (int u = 0; u < kN; ++u) {
    for (int y = 0; y < kN; ++y) col_in[y] = ws[y * kN + u];
    fdct_pass<false>(col_in, col_out);
    for (int v = 0; v < kN; ++v) {
      out[v * kN + u] = static_cast<std::int32_t>(col_out[v]);
    }
  }
}

void scalar_idct8(const std::int32_t* in, std::int16_t* out) {
  std::int64_t col_in[kN];
  std::int64_t col_out[kN];
  std::int64_t ws[kN * kN];
  // Columns (inverse).
  for (int u = 0; u < kN; ++u) {
    for (int v = 0; v < kN; ++v) col_in[v] = in[v * kN + u];
    idct_pass<true>(col_in, col_out);
    for (int y = 0; y < kN; ++y) ws[y * kN + u] = col_out[y];
  }
  // Rows (inverse).
  std::int64_t row_out[kN];
  for (int y = 0; y < kN; ++y) {
    idct_pass<false>(ws + y * kN, row_out);
    for (int x = 0; x < kN; ++x) {
      out[y * kN + x] = static_cast<std::int16_t>(std::max<std::int64_t>(
          -32768, std::min<std::int64_t>(32767, row_out[x])));
    }
  }
}

int scalar_quantize8x8(std::int32_t* block, int qp, std::uint32_t mul,
                       int shift) {
  const auto half_step = static_cast<std::uint32_t>(qp);
  int nonzero = 0;
  for (int i = 0; i < kN * kN; ++i) {
    // |c| and the sign restore as (x ^ s) - s with s = 0 or all ones:
    // one multiply per lane when the loop vectorizes.
    const auto c = static_cast<std::uint32_t>(block[i]);
    const std::uint32_t s = 0u - (c >> 31);
    const std::uint64_t n = (((c ^ s) - s) + half_step) >> 1;
    const auto mag = static_cast<std::uint32_t>((n * mul) >> shift);
    block[i] = static_cast<std::int32_t>((mag ^ s) - s);
    nonzero += mag != 0 ? 1 : 0;
  }
  return nonzero;
}

void scalar_reconstruct8x8(const std::int32_t* levels, std::int32_t step,
                           const std::uint8_t* pred,
                           std::ptrdiff_t pred_stride, std::uint8_t* dst,
                           std::ptrdiff_t dst_stride) {
  std::int32_t coeffs[kN * kN];
  for (int i = 0; i < kN * kN; ++i) coeffs[i] = levels[i] * step;
  std::int16_t residual[kN * kN];
  scalar_idct8(coeffs, residual);
  const std::int16_t* r = residual;
  for (int y = 0; y < kN; ++y) {
    for (int x = 0; x < kN; ++x) {
      const int v = pred[x] + r[x];
      dst[x] = static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
    }
    r += kN;
    pred += pred_stride;
    dst += dst_stride;
  }
}

}  // namespace qosctrl::media::simd
