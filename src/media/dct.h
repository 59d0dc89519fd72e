// 8x8 type-II DCT of a residual block.
//
// forward_dct8 is a separable fixed-point integer transform built from
// LLM-style butterflies (the structure popularized by libjpeg's "islow"
// path), descaled to the orthonormal range so coefficients are
// interchangeable with the double-precision reference pair the tests
// keep (tests/support/).  Its inverse runs only inside the fused
// reconstruction kernel (media/simd/kernels.h, reconstruct8x8), whose
// scalar body is media::simd::scalar_idct8.  The integer pair is not
// bit-exact with the reference (no two rounding schemes are) but tracks
// it within +/-1 per coefficient and round-trips 9-bit residuals within
// +/-1 per sample; the tests pin both bounds and a round-trip PSNR
// floor.  Unlike the reference — a triple-loop double matrix product —
// the butterflies run in a handful of integer multiplies per row, which
// matters now that benchmarks drive millions of blocks through it.
//
// The transform dispatches through media::simd::active_kernels(): the
// scalar butterflies live in media/simd/kernels_scalar.cpp and the
// AVX2 backend vectorizes the same network 8 lanes wide, bit-exact
// over the encoder's input domain (|residual| <= 1023 — see
// media/simd/kernels.h).
#pragma once

#include "media/frame.h"

namespace qosctrl::media {

/// Forward 8x8 DCT of a residual block (fixed-point integer kernel),
/// written into `out`.
void forward_dct8(const Block8& block, Coeffs8& out);

}  // namespace qosctrl::media
