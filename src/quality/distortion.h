// Distortion measurement — the quality side of the quality-vs-deadline
// trade the controller makes.
//
// The paper evaluates its controller by the PSNR of the frames the
// encoder actually delivers; this module measures that (and a
// structural metric, SSIM) from pixels, through the same CPUID-
// dispatched kernel table as the encoder's hot loops
// (media/simd/kernels.h):
//
//  * PSNR — from the integer sum of squared errors over a plane.  The
//    accumulation is integer in every backend, so the SSE (and hence
//    the dB value, a pure function of it) is bit-identical scalar /
//    SSE2 / AVX2 / NEON.
//  * SSIM — mean structural similarity over non-overlapping 8x8
//    blocks of a plane.  Per block the kernels return raw integer moments
//    (sums, second moments, cross moment); the SSIM ratio is then
//    evaluated in 64/128-bit fixed point (kSsimFpBits fractional
//    bits) from those integers, so the per-block scores — and their
//    mean — are backend-independent by construction, not just within
//    floating-point tolerance.
//
// Both metrics are pinned against golden values and across backends
// in tests/quality/distortion_test.cpp.
#pragma once

#include <cstdint>

#include "media/plane.h"

namespace qosctrl::quality {

/// Fractional bits of the fixed-point per-block SSIM scores.
inline constexpr int kSsimFpBits = 20;

/// Integer sum of squared errors over two equal-geometry planes, luma
/// or chroma (margins are not counted): the dispatched sum_sq_diff
/// kernel over each contiguous run of samples, exact, so bit-identical
/// across backends.
std::int64_t frame_sse(const media::Plane& a, const media::Plane& b);

/// PSNR in dB from an integer sum of squared errors over `pixels`
/// 8-bit samples; `cap` bounds the value for identical inputs
/// (sse == 0).  The single home of the dB formula: psnr() and
/// measure() both route through it, so encoded-frame and
/// skipped-frame scores can never drift apart.
double psnr_from_sse(std::int64_t sse, std::int64_t pixels,
                     double cap = 99.0);

/// PSNR of two equal-geometry planes from frame_sse; identical planes
/// yield `cap` (default 99 dB) rather than infinity.
double psnr(const media::Plane& a, const media::Plane& b, double cap = 99.0);

/// Fixed-point SSIM score of one 8x8 block pair from its raw moments
/// {sum a, sum b, sum a*a, sum b*b, sum a*b}, in [-1, 1] scaled by
/// 2^kSsimFpBits.  Exposed for the golden tests.
std::int64_t ssim_block_fp(const std::int64_t stats[5]);

/// Mean SSIM over the non-overlapping 8x8 block grid of two
/// equal-geometry planes, luma or chroma (plane sides are multiples of
/// 8, so the grid tiles exactly).  The mean of integer per-block
/// scores: bit-identical across backends; 1.0 for identical planes.
double ssim(const media::Plane& a, const media::Plane& b);

/// Both metrics in one pass over the plane pair.
struct FrameDistortion {
  double psnr = 0.0;
  double ssim = 0.0;
};
FrameDistortion measure(const media::Plane& a, const media::Plane& b,
                        double psnr_cap = 99.0);

}  // namespace qosctrl::quality
