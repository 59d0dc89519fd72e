// SSE2 kernels — the x86-64 baseline backend: `psadbw` macroblock SAD
// (single and 4-candidate batch) and `pavgb` / widened-16-bit half-pel
// interpolation.  SSE2 is implied by the x86-64 ABI, so this TU needs
// no special compile flags; on other architectures it compiles to a
// null table.  The forward DCT aliases the scalar kernel: an exact
// vector DCT needs 64-bit lanes and AVX2 makes that worthwhile
// (kernels_avx2.cpp), while a 16-bit-lane SSE2 version could not stay
// bit-exact with the scalar reference.  The quantizer and the fused
// inverse path alias the scalar kernels too; gcc vectorizes their
// loops for the SSE2 baseline in kernels_scalar.cpp.
#include "media/simd/kernels_impl.h"

// x86-64 only: the x86-64 ABI guarantees SSE2, so the table can be
// compiled and advertised unconditionally.  32-bit x86 gets the
// scalar backend — SSE2 is neither an ABI guarantee nor compiled in
// by default there, and a table-presence check would mis-advertise it
// on pre-SSE2 CPUs.
#if defined(__x86_64__) || defined(_M_X64)
#define QC_SIMD_X86_64 1
#endif

#ifdef QC_SIMD_X86_64

#include <emmintrin.h>

namespace qosctrl::media::simd {
namespace {

constexpr int kMb = 16;

/// Sum of the two 64-bit halves of a psadbw accumulator.
inline std::int64_t hsum_sad(__m128i acc) {
  return _mm_cvtsi128_si64(acc) +
         _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc));
}

/// psadbw of one 16-pixel row pair.
inline __m128i row_sad(const std::uint8_t* c, const std::uint8_t* r) {
  const __m128i vc = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c));
  const __m128i vr = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r));
  return _mm_sad_epu8(vc, vr);
}

std::int64_t sse2_sad_16x16(const std::uint8_t* cur, const std::uint8_t* ref,
                            std::ptrdiff_t ref_stride, std::int64_t best) {
  std::int64_t acc = 0;
  for (int y = 0; y < kMb; y += 4) {
    __m128i v = row_sad(cur + (y + 0) * kMb, ref + (y + 0) * ref_stride);
    v = _mm_add_epi64(v, row_sad(cur + (y + 1) * kMb,
                                 ref + (y + 1) * ref_stride));
    v = _mm_add_epi64(v, row_sad(cur + (y + 2) * kMb,
                                 ref + (y + 2) * ref_stride));
    v = _mm_add_epi64(v, row_sad(cur + (y + 3) * kMb,
                                 ref + (y + 3) * ref_stride));
    acc += hsum_sad(v);
    if (acc >= best) return acc;  // same 4-row checkpoint as scalar
  }
  return acc;
}

void sse2_sad_16x16_x4(const std::uint8_t* cur,
                       const std::uint8_t* const ref[4],
                       std::ptrdiff_t ref_stride, std::int64_t best,
                       std::int64_t out[4]) {
  out[0] = out[1] = out[2] = out[3] = 0;
  for (int y = 0; y < kMb; y += 4) {
    __m128i acc0 = _mm_setzero_si128();
    __m128i acc1 = _mm_setzero_si128();
    __m128i acc2 = _mm_setzero_si128();
    __m128i acc3 = _mm_setzero_si128();
    for (int dy = 0; dy < 4; ++dy) {
      const __m128i vc = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(cur + (y + dy) * kMb));
      const std::ptrdiff_t off = (y + dy) * ref_stride;
      acc0 = _mm_add_epi64(
          acc0, _mm_sad_epu8(vc, _mm_loadu_si128(
                                     reinterpret_cast<const __m128i*>(
                                         ref[0] + off))));
      acc1 = _mm_add_epi64(
          acc1, _mm_sad_epu8(vc, _mm_loadu_si128(
                                     reinterpret_cast<const __m128i*>(
                                         ref[1] + off))));
      acc2 = _mm_add_epi64(
          acc2, _mm_sad_epu8(vc, _mm_loadu_si128(
                                     reinterpret_cast<const __m128i*>(
                                         ref[2] + off))));
      acc3 = _mm_add_epi64(
          acc3, _mm_sad_epu8(vc, _mm_loadu_si128(
                                     reinterpret_cast<const __m128i*>(
                                         ref[3] + off))));
    }
    out[0] += hsum_sad(acc0);
    out[1] += hsum_sad(acc1);
    out[2] += hsum_sad(acc2);
    out[3] += hsum_sad(acc3);
    // Same all-candidates-pruned 4-row checkpoint as scalar.
    if (out[0] >= best && out[1] >= best && out[2] >= best &&
        out[3] >= best) {
      return;
    }
  }
}

void sse2_halfpel_16x16(const std::uint8_t* src, std::ptrdiff_t stride,
                        int fx, int fy, std::uint8_t* dst) {
  const __m128i two16 = _mm_set1_epi16(2);
  const __m128i zero = _mm_setzero_si128();
  for (int y = 0; y < kMb; ++y) {
    const std::uint8_t* p = src;
    const std::uint8_t* q = src + stride;
    __m128i r;
    if (fx == 1 && fy == 0) {
      // pavgb computes (a + b + 1) >> 1 — exactly the scalar rounding.
      r = _mm_avg_epu8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
                       _mm_loadu_si128(
                           reinterpret_cast<const __m128i*>(p + 1)));
    } else if (fx == 0) {  // fy == 1
      r = _mm_avg_epu8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(q)));
    } else {
      // Diagonal (a + b + c + d + 2) >> 2 needs 16-bit headroom; the
      // four operands sum to at most 1022, so u16 lanes are exact.
      const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 1));
      const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
      const __m128i d =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + 1));
      const __m128i lo = _mm_srli_epi16(
          _mm_add_epi16(
              _mm_add_epi16(_mm_unpacklo_epi8(a, zero),
                            _mm_unpacklo_epi8(b, zero)),
              _mm_add_epi16(
                  _mm_add_epi16(_mm_unpacklo_epi8(c, zero),
                                _mm_unpacklo_epi8(d, zero)),
                  two16)),
          2);
      const __m128i hi = _mm_srli_epi16(
          _mm_add_epi16(
              _mm_add_epi16(_mm_unpackhi_epi8(a, zero),
                            _mm_unpackhi_epi8(b, zero)),
              _mm_add_epi16(
                  _mm_add_epi16(_mm_unpackhi_epi8(c, zero),
                                _mm_unpackhi_epi8(d, zero)),
                  two16)),
          2);
      r = _mm_packus_epi16(lo, hi);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), r);
    src += stride;
    dst += kMb;
  }
}

void sse2_ssim_stats_8x8(const std::uint8_t* a, std::ptrdiff_t a_stride,
                         const std::uint8_t* b, std::ptrdiff_t b_stride,
                         std::int64_t out[5]) {
  const __m128i zero = _mm_setzero_si128();
  // 16-bit first-moment lanes stay exact (8 rows * 255 = 2040); the
  // second-moment pmaddwd partials stay far under 2^31 (8 rows * 2 *
  // 255^2 ~ 1.0e6), so 32-bit accumulation is exact throughout.
  __m128i acc_aa = zero;
  __m128i acc_bb = zero;
  __m128i acc_ab = zero;
  __m128i sum_a16 = zero;
  __m128i sum_b16 = zero;
  for (int y = 0; y < 8; ++y) {
    const __m128i ra = _mm_unpacklo_epi8(
        _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(a + y * a_stride)),
        zero);
    const __m128i rb = _mm_unpacklo_epi8(
        _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(b + y * b_stride)),
        zero);
    sum_a16 = _mm_add_epi16(sum_a16, ra);
    sum_b16 = _mm_add_epi16(sum_b16, rb);
    acc_aa = _mm_add_epi32(acc_aa, _mm_madd_epi16(ra, ra));
    acc_bb = _mm_add_epi32(acc_bb, _mm_madd_epi16(rb, rb));
    acc_ab = _mm_add_epi32(acc_ab, _mm_madd_epi16(ra, rb));
  }
  const __m128i one16 = _mm_set1_epi16(1);
  const auto hsum32 = [](__m128i v) -> std::int64_t {
    v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
    v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(v);
  };
  out[0] = hsum32(_mm_madd_epi16(sum_a16, one16));
  out[1] = hsum32(_mm_madd_epi16(sum_b16, one16));
  out[2] = hsum32(acc_aa);
  out[3] = hsum32(acc_bb);
  out[4] = hsum32(acc_ab);
}

const KernelTable kSse2Table = {
    "sse2",         Backend::kSse2,     sse2_sad_16x16, sse2_sad_16x16_x4,
    sse2_halfpel_16x16, scalar_fdct8,   scalar_quantize8x8,
    scalar_reconstruct8x8, sse2_ssim_stats_8x8,
};

}  // namespace

const KernelTable* sse2_kernel_table() { return &kSse2Table; }

}  // namespace qosctrl::media::simd

#else  // !QC_SIMD_X86_64

namespace qosctrl::media::simd {
const KernelTable* sse2_kernel_table() { return nullptr; }
}  // namespace qosctrl::media::simd

#endif
