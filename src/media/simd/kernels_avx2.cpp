// AVX2 kernels: `vpsadbw` macroblock SAD (single and paired-candidate
// batch), two-row `vpavgb` half-pel interpolation, an exact
// vectorized fixed-point LLM DCT, the reciprocal quantizer, and the
// fused inverse path (dequantize, IDCT, add, saturate, store).
//
// This translation unit is compiled with -mavx2 (see CMakeLists.txt);
// everything in it must stay unreachable unless the dispatcher's
// CPUID check passed.  It is deliberately self-contained — no library
// headers with inline functions are included, so no comdat symbol
// compiled with AVX2 codegen can be picked by the linker over a
// baseline copy from another TU.
//
// DCT exactness: the scalar kernel runs each 8-point pass in int64.
// Here each pass runs 8 lanes wide (lane = row for the row pass,
// lane = column for the column pass, with 8x8 32-bit transposes in
// between).  Additions stay in 32-bit lanes while magnitudes allow it
// (forward pass 1 entirely); every multiply by a fixed-point constant
// is widened to exact 64-bit products via vpmuldq on even/odd lane
// halves, summed in 64-bit, and descaled with the same rounding shift
// as the scalar code — bit-exact by construction over the documented
// input domain (|residual| <= 1023 forward, |coefficient| <= 65536
// inverse; see kernels.h).
#include "media/simd/kernels_impl.h"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

namespace qosctrl::media::simd {
namespace {

constexpr int kMb = 16;

inline __m256i load2rows(const std::uint8_t* lo, const std::uint8_t* hi) {
  return _mm256_inserti128_si256(
      _mm256_castsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo))),
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi)), 1);
}

inline std::int64_t hsum_sad128(__m128i acc) {
  return _mm_cvtsi128_si64(acc) +
         _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc, acc));
}

inline std::int64_t hsum_sad256(__m256i acc) {
  return hsum_sad128(_mm_add_epi64(_mm256_castsi256_si128(acc),
                                   _mm256_extracti128_si256(acc, 1)));
}

std::int64_t avx2_sad_16x16(const std::uint8_t* cur, const std::uint8_t* ref,
                            std::ptrdiff_t ref_stride, std::int64_t best) {
  std::int64_t acc = 0;
  for (int y = 0; y < kMb; y += 4) {
    // The cached current block has stride 16, so two of its rows are
    // one contiguous 32-byte load.
    const __m256i c01 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(cur + y * kMb));
    const __m256i c23 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(cur + (y + 2) * kMb));
    const __m256i r01 =
        load2rows(ref + y * ref_stride, ref + (y + 1) * ref_stride);
    const __m256i r23 =
        load2rows(ref + (y + 2) * ref_stride, ref + (y + 3) * ref_stride);
    const __m256i v = _mm256_add_epi64(_mm256_sad_epu8(c01, r01),
                                       _mm256_sad_epu8(c23, r23));
    acc += hsum_sad256(v);
    if (acc >= best) return acc;  // same 4-row checkpoint as scalar
  }
  return acc;
}

void avx2_sad_16x16_x4(const std::uint8_t* cur,
                       const std::uint8_t* const ref[4],
                       std::ptrdiff_t ref_stride, std::int64_t best,
                       std::int64_t out[4]) {
  out[0] = out[1] = out[2] = out[3] = 0;
  for (int y = 0; y < kMb; y += 4) {
    __m256i acc01 = _mm256_setzero_si256();
    __m256i acc23 = _mm256_setzero_si256();
    for (int dy = 0; dy < 4; ++dy) {
      const __m128i c = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(cur + (y + dy) * kMb));
      const __m256i cc =
          _mm256_inserti128_si256(_mm256_castsi128_si256(c), c, 1);
      const std::ptrdiff_t off = (y + dy) * ref_stride;
      acc01 = _mm256_add_epi64(
          acc01, _mm256_sad_epu8(cc, load2rows(ref[0] + off, ref[1] + off)));
      acc23 = _mm256_add_epi64(
          acc23, _mm256_sad_epu8(cc, load2rows(ref[2] + off, ref[3] + off)));
    }
    out[0] += hsum_sad128(_mm256_castsi256_si128(acc01));
    out[1] += hsum_sad128(_mm256_extracti128_si256(acc01, 1));
    out[2] += hsum_sad128(_mm256_castsi256_si128(acc23));
    out[3] += hsum_sad128(_mm256_extracti128_si256(acc23, 1));
    // Same all-candidates-pruned 4-row checkpoint as scalar.
    if (out[0] >= best && out[1] >= best && out[2] >= best &&
        out[3] >= best) {
      return;
    }
  }
}

void avx2_halfpel_16x16(const std::uint8_t* src, std::ptrdiff_t stride,
                        int fx, int fy, std::uint8_t* dst) {
  if (fx == 1 && fy == 0) {
    for (int y = 0; y < kMb; y += 2) {
      const std::uint8_t* p = src + y * stride;
      // vpavgb computes (a + b + 1) >> 1, the scalar rounding exactly.
      const __m256i r = _mm256_avg_epu8(load2rows(p, p + stride),
                                        load2rows(p + 1, p + stride + 1));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + y * kMb), r);
    }
    return;
  }
  if (fx == 0) {  // fy == 1
    for (int y = 0; y < kMb; y += 2) {
      const std::uint8_t* p = src + y * stride;
      const __m256i r =
          _mm256_avg_epu8(load2rows(p, p + stride),
                          load2rows(p + stride, p + 2 * stride));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + y * kMb), r);
    }
    return;
  }
  // Diagonal (a + b + c + d + 2) >> 2: u16 lanes are exact (sum of
  // four u8 plus 2 is at most 1022).
  const __m256i two = _mm256_set1_epi16(2);
  auto diag_row = [&](const std::uint8_t* p) {
    const std::uint8_t* q = p + stride;
    const __m256i a = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    const __m256i b = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 1)));
    const __m256i c = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q)));
    const __m256i d = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + 1)));
    return _mm256_srli_epi16(
        _mm256_add_epi16(_mm256_add_epi16(a, b),
                         _mm256_add_epi16(_mm256_add_epi16(c, d), two)),
        2);
  };
  for (int y = 0; y < kMb; y += 2) {
    const __m256i r0 = diag_row(src + y * stride);
    const __m256i r1 = diag_row(src + (y + 1) * stride);
    // packus interleaves 128-bit lanes; the permute restores row order.
    const __m256i packed = _mm256_permute4x64_epi64(
        _mm256_packus_epi16(r0, r1), _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + y * kMb), packed);
  }
}

// ---------------------------------------------------------------------------
// DCT helpers.

/// 8x8 transpose of 32-bit lanes across eight __m256i registers.
inline void transpose8x8_epi32(__m256i r[8]) {
  const __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

/// descale(x, n) on 32-bit lanes — exact while |x| + 2^(n-1) < 2^31.
template <int N>
inline __m256i descale32(__m256i x) {
  return _mm256_srai_epi32(
      _mm256_add_epi32(x, _mm256_set1_epi32(1 << (N - 1))), N);
}

/// Eight signed 64-bit values held as the widened even / odd 32-bit
/// lanes of a logical 8-lane vector.  vpmuldq only multiplies the low
/// 32 bits of each 64-bit element, so products stay exact while the
/// 32-bit operands do.
struct V64 {
  __m256i e, o;
};

inline V64 v64_add(V64 a, V64 b) {
  return {_mm256_add_epi64(a.e, b.e), _mm256_add_epi64(a.o, b.o)};
}
inline V64 v64_sub(V64 a, V64 b) {
  return {_mm256_sub_epi64(a.e, b.e), _mm256_sub_epi64(a.o, b.o)};
}

/// Exact 64-bit products lane-by-lane of an 8x32-bit vector with a
/// constant |c| < 2^31.
inline V64 wmul(__m256i v, std::int64_t c) {
  const __m256i vc = _mm256_set1_epi64x(c);
  return {_mm256_mul_epi32(v, vc),
          _mm256_mul_epi32(_mm256_srli_epi64(v, 32), vc)};
}

/// Rounded right-shift of 64-bit lanes back into one 8x32-bit vector;
/// exact when every descaled value fits in 32 bits (the low 32 bits
/// of a logical and an arithmetic shift agree for N <= 27).
template <int N>
inline __m256i descale64(V64 x) {
  const __m256i round = _mm256_set1_epi64x(INT64_C(1) << (N - 1));
  const __m256i e = _mm256_srli_epi64(_mm256_add_epi64(x.e, round), N);
  const __m256i o = _mm256_srli_epi64(_mm256_add_epi64(x.o, round), N);
  return _mm256_blend_epi32(e, _mm256_slli_epi64(o, 32), 0xAA);
}

/// Forward pass 1: all magnitudes (inputs <= 1023 in absolute value)
/// fit 32-bit lanes, products included, so vpmulld is exact.
inline void fdct_pass1(__m256i x[8]) {
  const __m256i tmp0 = _mm256_add_epi32(x[0], x[7]);
  const __m256i tmp7 = _mm256_sub_epi32(x[0], x[7]);
  const __m256i tmp1 = _mm256_add_epi32(x[1], x[6]);
  const __m256i tmp6 = _mm256_sub_epi32(x[1], x[6]);
  const __m256i tmp2 = _mm256_add_epi32(x[2], x[5]);
  const __m256i tmp5 = _mm256_sub_epi32(x[2], x[5]);
  const __m256i tmp3 = _mm256_add_epi32(x[3], x[4]);
  const __m256i tmp4 = _mm256_sub_epi32(x[3], x[4]);

  const __m256i tmp10 = _mm256_add_epi32(tmp0, tmp3);
  const __m256i tmp13 = _mm256_sub_epi32(tmp0, tmp3);
  const __m256i tmp11 = _mm256_add_epi32(tmp1, tmp2);
  const __m256i tmp12 = _mm256_sub_epi32(tmp1, tmp2);

  x[0] = _mm256_slli_epi32(_mm256_add_epi32(tmp10, tmp11), kDctPass1Bits);
  x[4] = _mm256_slli_epi32(_mm256_sub_epi32(tmp10, tmp11), kDctPass1Bits);

  const auto mul32 = [](__m256i v, std::int64_t c) {
    return _mm256_mullo_epi32(v, _mm256_set1_epi32(static_cast<int>(c)));
  };
  constexpr int kDown1 = kDctConstBits - kDctPass1Bits;
  const __m256i z1 = mul32(_mm256_add_epi32(tmp12, tmp13),
                           kFix_0_541196100);
  x[2] = descale32<kDown1>(
      _mm256_add_epi32(z1, mul32(tmp13, kFix_0_765366865)));
  x[6] = descale32<kDown1>(
      _mm256_sub_epi32(z1, mul32(tmp12, kFix_1_847759065)));

  const __m256i z1o = _mm256_add_epi32(tmp4, tmp7);
  const __m256i z2 = _mm256_add_epi32(tmp5, tmp6);
  const __m256i z3 = _mm256_add_epi32(tmp4, tmp6);
  const __m256i z4 = _mm256_add_epi32(tmp5, tmp7);
  const __m256i z5 = mul32(_mm256_add_epi32(z3, z4), kFix_1_175875602);

  const __m256i t4 = mul32(tmp4, kFix_0_298631336);
  const __m256i t5 = mul32(tmp5, kFix_2_053119869);
  const __m256i t6 = mul32(tmp6, kFix_3_072711026);
  const __m256i t7 = mul32(tmp7, kFix_1_501321110);
  const __m256i m1 = mul32(z1o, -kFix_0_899976223);
  const __m256i m2 = mul32(z2, -kFix_2_562915447);
  const __m256i m3 = _mm256_add_epi32(mul32(z3, -kFix_1_961570560), z5);
  const __m256i m4 = _mm256_add_epi32(mul32(z4, -kFix_0_390180644), z5);

  x[7] = descale32<kDown1>(_mm256_add_epi32(_mm256_add_epi32(t4, m1), m3));
  x[5] = descale32<kDown1>(_mm256_add_epi32(_mm256_add_epi32(t5, m2), m4));
  x[3] = descale32<kDown1>(_mm256_add_epi32(_mm256_add_epi32(t6, m2), m3));
  x[1] = descale32<kDown1>(_mm256_add_epi32(_mm256_add_epi32(t7, m1), m4));
}

/// Forward pass 2: sums of fixed-point products need 64 bits.
inline void fdct_pass2(__m256i x[8]) {
  const __m256i tmp0 = _mm256_add_epi32(x[0], x[7]);
  const __m256i tmp7 = _mm256_sub_epi32(x[0], x[7]);
  const __m256i tmp1 = _mm256_add_epi32(x[1], x[6]);
  const __m256i tmp6 = _mm256_sub_epi32(x[1], x[6]);
  const __m256i tmp2 = _mm256_add_epi32(x[2], x[5]);
  const __m256i tmp5 = _mm256_sub_epi32(x[2], x[5]);
  const __m256i tmp3 = _mm256_add_epi32(x[3], x[4]);
  const __m256i tmp4 = _mm256_sub_epi32(x[3], x[4]);

  const __m256i tmp10 = _mm256_add_epi32(tmp0, tmp3);
  const __m256i tmp13 = _mm256_sub_epi32(tmp0, tmp3);
  const __m256i tmp11 = _mm256_add_epi32(tmp1, tmp2);
  const __m256i tmp12 = _mm256_sub_epi32(tmp1, tmp2);

  constexpr int kSimpleDown = kDctPass1Bits + 3;
  constexpr int kConstDown = kDctConstBits + kDctPass1Bits + 3;
  x[0] = descale32<kSimpleDown>(_mm256_add_epi32(tmp10, tmp11));
  x[4] = descale32<kSimpleDown>(_mm256_sub_epi32(tmp10, tmp11));

  const V64 z1 = wmul(_mm256_add_epi32(tmp12, tmp13), kFix_0_541196100);
  x[2] = descale64<kConstDown>(
      v64_add(z1, wmul(tmp13, kFix_0_765366865)));
  x[6] = descale64<kConstDown>(
      v64_add(z1, wmul(tmp12, -kFix_1_847759065)));

  const __m256i z1o = _mm256_add_epi32(tmp4, tmp7);
  const __m256i z2 = _mm256_add_epi32(tmp5, tmp6);
  const __m256i z3 = _mm256_add_epi32(tmp4, tmp6);
  const __m256i z4 = _mm256_add_epi32(tmp5, tmp7);
  const V64 z5 = wmul(_mm256_add_epi32(z3, z4), kFix_1_175875602);

  const V64 t4 = wmul(tmp4, kFix_0_298631336);
  const V64 t5 = wmul(tmp5, kFix_2_053119869);
  const V64 t6 = wmul(tmp6, kFix_3_072711026);
  const V64 t7 = wmul(tmp7, kFix_1_501321110);
  const V64 m1 = wmul(z1o, -kFix_0_899976223);
  const V64 m2 = wmul(z2, -kFix_2_562915447);
  const V64 m3 = v64_add(wmul(z3, -kFix_1_961570560), z5);
  const V64 m4 = v64_add(wmul(z4, -kFix_0_390180644), z5);

  x[7] = descale64<kConstDown>(v64_add(v64_add(t4, m1), m3));
  x[5] = descale64<kConstDown>(v64_add(v64_add(t5, m2), m4));
  x[3] = descale64<kConstDown>(v64_add(v64_add(t6, m2), m3));
  x[1] = descale64<kConstDown>(v64_add(v64_add(t7, m1), m4));
}

/// One inverse pass; both passes share the structure, only the
/// descale amount differs.
template <int kDown>
inline void idct_pass(__m256i x[8]) {
  const V64 z1 = wmul(_mm256_add_epi32(x[2], x[6]), kFix_0_541196100);
  const V64 tmp2 = v64_add(z1, wmul(x[6], -kFix_1_847759065));
  const V64 tmp3 = v64_add(z1, wmul(x[2], kFix_0_765366865));

  const V64 tmp0 =
      wmul(_mm256_add_epi32(x[0], x[4]), INT64_C(1) << kDctConstBits);
  const V64 tmp1 =
      wmul(_mm256_sub_epi32(x[0], x[4]), INT64_C(1) << kDctConstBits);

  const V64 tmp10 = v64_add(tmp0, tmp3);
  const V64 tmp13 = v64_sub(tmp0, tmp3);
  const V64 tmp11 = v64_add(tmp1, tmp2);
  const V64 tmp12 = v64_sub(tmp1, tmp2);

  const __m256i z1o = _mm256_add_epi32(x[7], x[1]);
  const __m256i z2o = _mm256_add_epi32(x[5], x[3]);
  const __m256i z3o = _mm256_add_epi32(x[7], x[3]);
  const __m256i z4o = _mm256_add_epi32(x[5], x[1]);
  const V64 z5 = wmul(_mm256_add_epi32(z3o, z4o), kFix_1_175875602);

  const V64 m1 = wmul(z1o, -kFix_0_899976223);
  const V64 m2 = wmul(z2o, -kFix_2_562915447);
  const V64 m3 = v64_add(wmul(z3o, -kFix_1_961570560), z5);
  const V64 m4 = v64_add(wmul(z4o, -kFix_0_390180644), z5);

  const V64 t0 = v64_add(wmul(x[7], kFix_0_298631336), v64_add(m1, m3));
  const V64 t1 = v64_add(wmul(x[5], kFix_2_053119869), v64_add(m2, m4));
  const V64 t2 = v64_add(wmul(x[3], kFix_3_072711026), v64_add(m2, m3));
  const V64 t3 = v64_add(wmul(x[1], kFix_1_501321110), v64_add(m1, m4));

  x[0] = descale64<kDown>(v64_add(tmp10, t3));
  x[7] = descale64<kDown>(v64_sub(tmp10, t3));
  x[1] = descale64<kDown>(v64_add(tmp11, t2));
  x[6] = descale64<kDown>(v64_sub(tmp11, t2));
  x[2] = descale64<kDown>(v64_add(tmp12, t1));
  x[5] = descale64<kDown>(v64_sub(tmp12, t1));
  x[3] = descale64<kDown>(v64_add(tmp13, t0));
  x[4] = descale64<kDown>(v64_sub(tmp13, t0));
}

void avx2_fdct8(const std::int16_t* in, std::int32_t* out) {
  __m256i x[8];
  for (int y = 0; y < 8; ++y) {
    x[y] = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + y * 8)));
  }
  transpose8x8_epi32(x);  // lane = row for the row pass
  fdct_pass1(x);
  transpose8x8_epi32(x);  // lane = column for the column pass
  fdct_pass2(x);
  for (int v = 0; v < 8; ++v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + v * 8), x[v]);
  }
}

void avx2_idct8(const std::int32_t* in, std::int16_t* out) {
  __m256i x[8];
  for (int v = 0; v < 8; ++v) {
    x[v] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(in + v * 8));
  }
  idct_pass<kDctConstBits - kDctPass1Bits>(x);  // lane = column
  transpose8x8_epi32(x);
  idct_pass<kDctConstBits + kDctPass1Bits + 3>(x);  // lane = row
  transpose8x8_epi32(x);
  // packs_epi32 saturates to int16 — the scalar clamp exactly; the
  // permute undoes its 128-bit lane interleave.
  for (int y = 0; y < 8; y += 2) {
    const __m256i packed = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(x[y], x[y + 1]), _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + y * 8), packed);
  }
}

int avx2_quantize8x8(std::int32_t* block, int qp, std::uint32_t mul,
                     int shift) {
  // The scalar formula 8 lanes wide: vpmuludq forms the exact 64-bit
  // products n * mul on the even and the odd lanes; the low 32 bits of
  // each shifted product are the magnitude (below 2^31).
  const __m256i half_step = _mm256_set1_epi32(qp);
  const __m256i vmul = _mm256_set1_epi64x(mul);
  const __m128i vshift = _mm_cvtsi32_si128(shift);
  const __m256i zero = _mm256_setzero_si256();
  __m256i zeros = zero;
  for (int v = 0; v < 8; ++v) {
    auto* p = reinterpret_cast<__m256i*>(block + v * 8);
    const __m256i c = _mm256_loadu_si256(p);
    const __m256i n = _mm256_srli_epi32(
        _mm256_add_epi32(_mm256_abs_epi32(c), half_step), 1);
    const __m256i even = _mm256_srl_epi64(_mm256_mul_epu32(n, vmul), vshift);
    const __m256i odd = _mm256_srl_epi64(
        _mm256_mul_epu32(_mm256_srli_epi64(n, 32), vmul), vshift);
    const __m256i mag =
        _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
    const __m256i s = _mm256_srai_epi32(c, 31);
    _mm256_storeu_si256(p, _mm256_sub_epi32(_mm256_xor_si256(mag, s), s));
    zeros = _mm256_sub_epi32(zeros, _mm256_cmpeq_epi32(mag, zero));
  }
  __m128i z = _mm_add_epi32(_mm256_castsi256_si128(zeros),
                            _mm256_extracti128_si256(zeros, 1));
  z = _mm_add_epi32(z, _mm_shuffle_epi32(z, _MM_SHUFFLE(1, 0, 3, 2)));
  z = _mm_add_epi32(z, _mm_shuffle_epi32(z, _MM_SHUFFLE(2, 3, 0, 1)));
  return 64 - _mm_cvtsi128_si32(z);
}

void avx2_reconstruct8x8(const std::int32_t* levels, std::int32_t step,
                         const std::uint8_t* pred, std::ptrdiff_t pred_stride,
                         std::uint8_t* dst, std::ptrdiff_t dst_stride) {
  // Dequantize with vpmulld (exact in the documented domain), run the
  // idct8 passes, then add the prediction two rows at a time: packs
  // saturates the residual to int16 as idct8 does, adds_epi16 cannot
  // move a sum across the [0, 255] clamp, and packus clamps.
  const __m256i vstep = _mm256_set1_epi32(step);
  __m256i x[8];
  for (int v = 0; v < 8; ++v) {
    x[v] = _mm256_mullo_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(levels + v * 8)),
        vstep);
  }
  idct_pass<kDctConstBits - kDctPass1Bits>(x);  // lane = column
  transpose8x8_epi32(x);
  idct_pass<kDctConstBits + kDctPass1Bits + 3>(x);  // lane = row
  transpose8x8_epi32(x);
  for (int y = 0; y < 8; y += 2) {
    const __m256i residual = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(x[y], x[y + 1]), _MM_SHUFFLE(3, 1, 2, 0));
    const __m128i p = _mm_unpacklo_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(pred)),
        _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(pred + pred_stride)));
    const __m256i sum =
        _mm256_adds_epi16(residual, _mm256_cvtepu8_epi16(p));
    const __m256i px = _mm256_packus_epi16(sum, sum);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst),
                     _mm256_castsi256_si128(px));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + dst_stride),
                     _mm256_extracti128_si256(px, 1));
    pred += 2 * pred_stride;
    dst += 2 * dst_stride;
  }
}

// ---------------------------------------------------------------------------
// Distortion kernels (PSNR / SSIM accumulators).

/// Widens the eight non-negative 32-bit vpmaddwd partials into the
/// 64-bit accumulator lanes — overflow-free for any span length.
inline __m256i accumulate_madd(__m256i acc, __m256i madd) {
  const __m256i zero = _mm256_setzero_si256();
  acc = _mm256_add_epi64(acc, _mm256_unpacklo_epi32(madd, zero));
  return _mm256_add_epi64(acc, _mm256_unpackhi_epi32(madd, zero));
}

std::int64_t avx2_sum_sq_diff(const std::uint8_t* a, const std::uint8_t* b,
                              std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i dlo = _mm256_sub_epi16(_mm256_unpacklo_epi8(va, zero),
                                         _mm256_unpacklo_epi8(vb, zero));
    const __m256i dhi = _mm256_sub_epi16(_mm256_unpackhi_epi8(va, zero),
                                         _mm256_unpackhi_epi8(vb, zero));
    acc = accumulate_madd(acc, _mm256_madd_epi16(dlo, dlo));
    acc = accumulate_madd(acc, _mm256_madd_epi16(dhi, dhi));
  }
  std::int64_t total = hsum_sad256(acc);
  if (i < n) {  // one 16-pixel tail (n is a multiple of 16)
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const __m128i z = _mm_setzero_si128();
    const __m128i dlo =
        _mm_sub_epi16(_mm_unpacklo_epi8(va, z), _mm_unpacklo_epi8(vb, z));
    const __m128i dhi =
        _mm_sub_epi16(_mm_unpackhi_epi8(va, z), _mm_unpackhi_epi8(vb, z));
    __m128i acc32 = _mm_add_epi32(_mm_madd_epi16(dlo, dlo),
                                  _mm_madd_epi16(dhi, dhi));
    acc32 = _mm_add_epi32(
        acc32, _mm_shuffle_epi32(acc32, _MM_SHUFFLE(1, 0, 3, 2)));
    acc32 = _mm_add_epi32(
        acc32, _mm_shuffle_epi32(acc32, _MM_SHUFFLE(2, 3, 0, 1)));
    total += _mm_cvtsi128_si32(acc32);
  }
  return total;
}

void avx2_ssim_stats_8x8(const std::uint8_t* a, std::ptrdiff_t a_stride,
                         const std::uint8_t* b, std::ptrdiff_t b_stride,
                         std::int64_t out[5]) {
  // Two rows per iteration in 16-lane 16-bit vectors.  First moments
  // stay exact in 16-bit lanes (8 rows * 255 = 2040); second-moment
  // vpmaddwd partials stay far under 2^31.
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc_aa = zero;
  __m256i acc_bb = zero;
  __m256i acc_ab = zero;
  __m256i sum_a16 = zero;
  __m256i sum_b16 = zero;
  const auto load2x8 = [](const std::uint8_t* lo, const std::uint8_t* hi) {
    return _mm256_cvtepu8_epi16(_mm_unpacklo_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(lo)),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(hi))));
  };
  for (int y = 0; y < 8; y += 2) {
    const __m256i ra = load2x8(a + y * a_stride, a + (y + 1) * a_stride);
    const __m256i rb = load2x8(b + y * b_stride, b + (y + 1) * b_stride);
    sum_a16 = _mm256_add_epi16(sum_a16, ra);
    sum_b16 = _mm256_add_epi16(sum_b16, rb);
    acc_aa = _mm256_add_epi32(acc_aa, _mm256_madd_epi16(ra, ra));
    acc_bb = _mm256_add_epi32(acc_bb, _mm256_madd_epi16(rb, rb));
    acc_ab = _mm256_add_epi32(acc_ab, _mm256_madd_epi16(ra, rb));
  }
  const __m256i one16 = _mm256_set1_epi16(1);
  const auto hsum32 = [](__m256i v) -> std::int64_t {
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(s);
  };
  out[0] = hsum32(_mm256_madd_epi16(sum_a16, one16));
  out[1] = hsum32(_mm256_madd_epi16(sum_b16, one16));
  out[2] = hsum32(acc_aa);
  out[3] = hsum32(acc_bb);
  out[4] = hsum32(acc_ab);
}

const KernelTable kAvx2Table = {
    "avx2",         Backend::kAvx2, avx2_sad_16x16, avx2_sad_16x16_x4,
    avx2_halfpel_16x16, avx2_fdct8, avx2_idct8,
    avx2_quantize8x8,   avx2_reconstruct8x8,
    avx2_sum_sq_diff,   avx2_ssim_stats_8x8,
};

}  // namespace

const KernelTable* avx2_kernel_table() { return &kAvx2Table; }

}  // namespace qosctrl::media::simd

#else  // not built with AVX2

namespace qosctrl::media::simd {
const KernelTable* avx2_kernel_table() { return nullptr; }
}  // namespace qosctrl::media::simd

#endif
