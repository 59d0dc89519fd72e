#include "media/motion.h"

#include <cstdlib>

#include "media/simd/kernels.h"
#include "util/check.h"

namespace qosctrl::media {

std::int64_t sad_16x16(const Sample* cur, const Sample* ref,
                       std::ptrdiff_t ref_stride, std::int64_t best) {
  return simd::active_kernels().sad_16x16(cur, ref, ref_stride, best);
}

namespace {

/// True when a 16x16 block read at (x0 + dx, y0 + dy), plus one extra
/// pixel right and down for half-pel interpolation, stays inside the
/// reference's margin.
bool covers_block16(const Frame& reference, int x0, int y0, int dx, int dy) {
  const int pad = reference.pad();
  return x0 + dx >= -pad && y0 + dy >= -pad &&
         x0 + dx + kMacroBlockSize + 1 <= reference.width() + pad &&
         y0 + dy + kMacroBlockSize + 1 <= reference.height() + pad;
}

/// Half-pel refinement around the full-pel winner.
void refine_half_pel(const Sample* src, const Frame& reference, int x0,
                     int y0, MotionResult& result) {
  for (int fy = -1; fy <= 1; ++fy) {
    for (int fx = -1; fx <= 1; ++fx) {
      if (fx == 0 && fy == 0) continue;
      const int dx2 = 2 * result.dx + fx;
      const int dy2 = 2 * result.dy + fy;
      const auto pred = motion_compensate_halfpel(reference, x0, y0, dx2, dy2);
      // Bounded by the best SAD so far: a pruned (partial) sum is >= it
      // and loses the strict comparison below.
      const std::int64_t s =
          sad_16x16(src, pred.data(), kMacroBlockSize, result.sad);
      ++result.points_examined;
      if (s < result.sad) {
        result.sad = s;
        result.dx2 = dx2;
        result.dy2 = dy2;
      }
    }
  }
}

}  // namespace

int search_radius_for_level(std::size_t qi) {
  // Monotone in quality; level 0 is "zero vector only" matching the
  // paper's nearly-free Motion_Estimate at q=0 (215 cycles average).
  static constexpr int kRadii[8] = {0, 1, 2, 3, 4, 5, 6, kMaxSearchRadius};
  QC_EXPECT(qi < 8, "quality index out of range for search radius");
  return kRadii[qi];
}

MotionResult estimate_motion(const Sample* src, const Frame& reference,
                             int x0, int y0, const MotionConfig& config) {
  QC_EXPECT(x0 >= 0 && y0 >= 0 &&
                x0 + kMacroBlockSize <= reference.width() &&
                y0 + kMacroBlockSize <= reference.height(),
            "macroblock origin out of bounds");
  QC_EXPECT(config.radius >= 0, "search radius must be >= 0");
  QC_EXPECT(config.radius + 1 <= reference.pad(),
            "search radius (plus half-pel margin) exceeds reference pad");
  MotionResult result;
  const int r = config.radius;
  result.points_total = (2 * r + 1) * (2 * r + 1);

  const std::ptrdiff_t stride = reference.stride();
  const Sample* block = reference.row(y0) + x0;  // the zero vector
  result.sad = sad_16x16(src, block, stride, INT64_C(1) << 60);
  result.points_examined = 1;
  const auto finish = [&]() -> MotionResult {
    result.dx2 = 2 * result.dx;
    result.dy2 = 2 * result.dy;
    if (config.half_pel) {
      refine_half_pel(src, reference, x0, y0, result);
    }
    return result;
  };
  const auto good_enough = [&] {
    return config.early_exit_sad > 0 && result.sad <= config.early_exit_sad;
  };
  if (good_enough()) return finish();  // the zero vector already is

  // Spiral: rings of increasing Chebyshev radius, candidates batched 4
  // per sad_16x16_x4 call (a ring has 8 * ring candidates, always a
  // multiple of 4).  The batched kernel returns exact SADs, the scan
  // below updates the best SAD and checks the early-exit threshold in
  // candidate order, and a threshold hit discards the batch remainder,
  // so the result is that of a one-candidate-at-a-time scan.  The
  // kernel prunes only when all four candidates are already beaten
  // (values >= best are partial either way), which affects work done,
  // never values returned.
  const simd::KernelTable& kernels = simd::active_kernels();
  int cdx[4];
  int cdy[4];
  const Sample* refs[4];
  std::int64_t sads[4];
  int n = 0;
  for (int ring = 1; ring <= r; ++ring) {
    for (int dy = -ring; dy <= ring; ++dy) {
      const bool edge_row = std::abs(dy) == ring;
      const int step = edge_row ? 1 : 2 * ring;  // skip the ring interior
      for (int dx = -ring; dx <= ring; dx += step) {
        QC_DCHECK(covers_block16(reference, x0, y0, dx, dy),
                  "search displacement exceeds reference padding");
        cdx[n] = dx;
        cdy[n] = dy;
        refs[n] = block + dy * stride + dx;
        if (++n < 4) continue;
        n = 0;
        kernels.sad_16x16_x4(src, refs, stride, result.sad, sads);
        for (int k = 0; k < 4; ++k) {
          ++result.points_examined;
          if (sads[k] < result.sad) {
            result.dx = cdx[k];
            result.dy = cdy[k];
            result.sad = sads[k];
          }
          if (good_enough()) return finish();
        }
      }
    }
  }
  QC_DCHECK(n == 0, "ring candidate count must be a multiple of 4");
  return finish();
}

std::array<Sample, 256> motion_compensate_halfpel(const Frame& reference,
                                                  int x0, int y0, int dx2,
                                                  int dy2) {
  // Integer part (floor division toward minus infinity) + fraction.
  const int ix = (dx2 >= 0) ? dx2 / 2 : (dx2 - 1) / 2;
  const int iy = (dy2 >= 0) ? dy2 / 2 : (dy2 - 1) / 2;
  const int fx = dx2 - 2 * ix;  // 0 or 1
  const int fy = dy2 - 2 * iy;
  QC_EXPECT(covers_block16(reference, x0, y0, ix, iy),
            "motion vector exceeds reference padding");
  const Sample* src = reference.row(y0 + iy) + x0 + ix;
  std::array<Sample, 256> out;
  if (fx == 0 && fy == 0) {
    copy_block(src, reference.stride(), kMacroBlockSize, out.data());
  } else {
    simd::active_kernels().halfpel_16x16(src, reference.stride(), fx, fy,
                                         out.data());
  }
  return out;
}

}  // namespace qosctrl::media
