// Distortion measurement — the quality side of the quality-vs-deadline
// trade the controller makes.
//
// The paper evaluates its controller by the PSNR of the frames the
// encoder actually delivers; this module measures that (and a
// structural metric, SSIM) from pixels in one pass over the plane's
// non-overlapping 8x8 blocks, through the same CPUID-dispatched kernel
// table as the encoder's hot loops (media/simd/kernels.h).  Per block
// the ssim_stats_8x8 kernel returns raw integer moments (sums, second
// moments, cross moment), identical in every backend; both metrics are
// pure functions of them:
//
//  * PSNR — from the frame's integer sum of squared errors, summed per
//    block as sum a^2 + sum b^2 - 2 sum ab.  The SSE (and hence the dB
//    value) is bit-identical scalar / SSE2 / AVX2 / NEON.
//  * SSIM — mean structural similarity over the blocks, each ratio
//    evaluated in 64/128-bit fixed point (kSsimFpBits fractional bits)
//    from the moments, so the per-block scores — and their mean — are
//    backend-independent by construction, not just within
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

/// PSNR in dB from an integer sum of squared errors over `pixels`
/// 8-bit samples; `cap` bounds the value for identical inputs
/// (sse == 0) rather than infinity.  The single home of the dB
/// formula: measure() routes through it, so encoded-frame and
/// skipped-frame scores can never drift apart.
double psnr_from_sse(std::int64_t sse, std::int64_t pixels,
                     double cap = 99.0);

/// Fixed-point SSIM score of one 8x8 block pair from its raw moments
/// {sum a, sum b, sum a*a, sum b*b, sum a*b}, in [-1, 1] scaled by
/// 2^kSsimFpBits.  Exposed for the golden tests.
std::int64_t ssim_block_fp(const std::int64_t stats[5]);

/// Mean SSIM over the non-overlapping 8x8 block grid of two
/// equal-geometry planes, luma or chroma (plane sides are multiples of
/// 8, so the grid tiles exactly).  The mean of integer per-block
/// scores: bit-identical across backends; 1.0 for identical planes.
double ssim(const media::Plane& a, const media::Plane& b);

/// Both metrics in one pass over two equal-geometry planes, luma or
/// chroma (margins are not counted): the PSNR of their exact SSE
/// (identical planes score `psnr_cap`) and their mean SSIM.
struct FrameDistortion {
  double psnr = 0.0;
  double ssim = 0.0;
};
FrameDistortion measure(const media::Plane& a, const media::Plane& b,
                        double psnr_cap = 99.0);

}  // namespace qosctrl::quality
