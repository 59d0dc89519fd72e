#include "quality/distortion.h"

#include <algorithm>
#include <cmath>

#include "media/simd/kernels.h"
#include "util/check.h"

namespace qosctrl::quality {
namespace {

// SSIM stabilizers (Wang et al.): C1 = (0.01 * 255)^2, C2 =
// (0.03 * 255)^2, both pre-multiplied by n^2 (n = 64 pixels per 8x8
// window) because the ratio below is the standard formula with
// numerator and denominator scaled by n^2 to stay in integers.
constexpr std::int64_t kN = 64;
constexpr std::int64_t kC1n2 = 26634;   // round(6.5025 * 64^2)
constexpr std::int64_t kC2n2 = 239708;  // round(58.5225 * 64^2)

/// One pass over the non-overlapping 8x8 block grid, accumulating the
/// fixed-point SSIM total and (for free, from the same moments) the
/// exact frame SSE: per block, sum a^2 + sum b^2 - 2 sum ab.
struct BlockScan {
  std::int64_t ssim_fp_total = 0;
  std::int64_t sse = 0;
  std::int64_t blocks = 0;
};

BlockScan scan_blocks(const media::Plane& a, const media::Plane& b) {
  QC_EXPECT(a.width() == b.width() && a.height() == b.height(),
            "planes must have equal dimensions");
  const auto& kernels = media::simd::active_kernels();
  const int bw = a.width() / media::kTransformSize;
  const int bh = a.height() / media::kTransformSize;
  BlockScan out;
  out.blocks = static_cast<std::int64_t>(bw) * bh;
  std::int64_t stats[5];
  for (int by = 0; by < bh; ++by) {
    const std::uint8_t* ra = a.row(by * media::kTransformSize);
    const std::uint8_t* rb = b.row(by * media::kTransformSize);
    for (int bx = 0; bx < bw; ++bx) {
      kernels.ssim_stats_8x8(ra + bx * media::kTransformSize, a.stride(),
                             rb + bx * media::kTransformSize, b.stride(),
                             stats);
      out.ssim_fp_total += ssim_block_fp(stats);
      out.sse += stats[2] + stats[3] - 2 * stats[4];
    }
  }
  return out;
}

double mean_ssim_of(const BlockScan& s) {
  return static_cast<double>(s.ssim_fp_total) /
         (static_cast<double>(s.blocks) *
          static_cast<double>(INT64_C(1) << kSsimFpBits));
}

}  // namespace

double psnr_from_sse(std::int64_t sse, std::int64_t pixels, double cap) {
  QC_EXPECT(pixels > 0, "PSNR needs a non-empty frame");
  if (sse <= 0) return cap;
  const double mse =
      static_cast<double>(sse) / static_cast<double>(pixels);
  return std::min(cap, 10.0 * std::log10(255.0 * 255.0 / mse));
}

std::int64_t ssim_block_fp(const std::int64_t stats[5]) {
  const std::int64_t s1 = stats[0];
  const std::int64_t s2 = stats[1];
  // Scaled variances / covariance: n * sum(x^2) - (sum x)^2 is n^2
  // times the biased variance; likewise for the cross term (which may
  // be negative).
  const std::int64_t var_a = kN * stats[2] - s1 * s1;
  const std::int64_t var_b = kN * stats[3] - s2 * s2;
  const std::int64_t covar = kN * stats[4] - s1 * s2;

  // Luminance and contrast/structure factors, each <= ~5.6e8, so the
  // int64 product is safe; the denominator is strictly positive
  // because both stabilizers are.
  const std::int64_t num =
      (2 * s1 * s2 + kC1n2) * (2 * covar + kC2n2);
  const std::int64_t den =
      (s1 * s1 + s2 * s2 + kC1n2) * (var_a + var_b + kC2n2);
  // num / den in [-1, 1]; the widened shift keeps the quotient exact
  // before the single rounding division.
  const __int128 scaled = static_cast<__int128>(num) << kSsimFpBits;
  const __int128 half = den / 2;
  return static_cast<std::int64_t>(
      scaled >= 0 ? (scaled + half) / den : (scaled - half) / den);
}

double ssim(const media::Plane& a, const media::Plane& b) {
  return mean_ssim_of(scan_blocks(a, b));
}

FrameDistortion measure(const media::Plane& a, const media::Plane& b,
                        double psnr_cap) {
  const BlockScan s = scan_blocks(a, b);
  FrameDistortion d;
  d.psnr = psnr_from_sse(
      s.sse, static_cast<std::int64_t>(a.width()) * a.height(), psnr_cap);
  d.ssim = mean_ssim_of(s);
  return d;
}

}  // namespace qosctrl::quality
