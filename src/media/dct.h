// 8x8 type-II DCT and its inverse.
//
// The production pair (forward_dct8 / inverse_dct8) is a separable
// fixed-point integer transform built from LLM-style butterflies (the
// structure popularized by libjpeg's "islow" path), descaled to the
// orthonormal range so coefficients are interchangeable with the
// double-precision reference pair kept below.  The integer pair is not
// bit-exact with the reference (no two rounding schemes are) but tracks
// it within +/-1 per coefficient and round-trips 9-bit residuals within
// +/-1 per sample; the tests pin both bounds and a round-trip PSNR
// floor.  Unlike the reference — a triple-loop double matrix product —
// the butterflies run in a handful of integer multiplies per row, which
// matters now that benchmarks drive millions of blocks through it.
//
// Both directions dispatch through media::simd::active_kernels(): the
// scalar butterflies live in media/simd/kernels_scalar.cpp and the
// AVX2 backend vectorizes the same network 8 lanes wide, bit-exact
// over the encoder's input domain (|residual| <= 1023 forward,
// |coefficient| <= 65536 inverse — see media/simd/kernels.h).
#pragma once

#include "media/frame.h"

namespace qosctrl::media {

/// Forward 8x8 DCT of a residual block (fixed-point integer kernel),
/// written into `out`.
void forward_dct8(const Block8& block, Coeffs8& out);

/// Inverse 8x8 DCT back to (rounded) residual samples, written into
/// `out`.
void inverse_dct8(const Coeffs8& coeffs, Block8& out);

/// Double-precision reference pair: the original implementation, kept
/// as the oracle for equivalence tests and the ref side of bench_micro.
Coeffs8 forward_dct8_ref(const Block8& block);
Block8 inverse_dct8_ref(const Coeffs8& coeffs);

}  // namespace qosctrl::media
