#include "media/motion.h"

#include <algorithm>
#include <cstdlib>

#include "media/simd/kernels.h"
#include "util/check.h"

namespace qosctrl::media {

std::int64_t sad_16x16(const Sample* cur, const Sample* ref,
                       std::ptrdiff_t ref_stride, std::int64_t best) {
  return simd::active_kernels().sad_16x16(cur, ref, ref_stride, best);
}

namespace {

/// Scalar fallback: SAD between the cached block `cur` and the
/// border-clamped block of `reference` at (bx, by), with the same
/// per-row early exit as sad_16x16.
std::int64_t sad_clamped(const Sample* cur, const Frame& reference, int bx,
                         int by, std::int64_t best) {
  std::int64_t acc = 0;
  for (int y = 0; y < kMacroBlockSize; ++y) {
    for (int x = 0; x < kMacroBlockSize; ++x) {
      const int a = cur[x];
      const int b = reference.at_clamped(bx + x, by + y);
      acc += std::abs(a - b);
    }
    if (acc >= best) return acc;
    cur += kMacroBlockSize;
  }
  return acc;
}

/// Bilinear half-pel interpolation of a 16x16 block anchored at `src`;
/// (fx, fy) in {0, 1}^2 \ {(0, 0)}.  Reads one extra column/row.
void halfpel_block16(const Sample* src, std::ptrdiff_t stride, int fx,
                     int fy, std::array<Sample, 256>& out) {
  simd::active_kernels().halfpel_16x16(src, stride, fx, fy, out.data());
}

/// True when the 16x16 block at (bx, by) lies fully inside `frame`.
bool block16_interior(const Frame& frame, int bx, int by) {
  return bx >= 0 && by >= 0 && bx + kMacroBlockSize <= frame.width() &&
         by + kMacroBlockSize <= frame.height();
}

/// Reference views abstract where candidate blocks are read from, so
/// the spiral search is written once.  Both are bit-exact with the
/// original clamped scalar code.

struct PaddedRefView {
  /// Padded references read any in-window candidate with the span
  /// kernel, so ring candidates can be batched 4 per kernel call.
  static constexpr bool kBatch = true;

  const PaddedFrame* ref;

  std::int64_t sad(const Sample* cur, int bx, int by,
                   std::int64_t best) const {
    QC_DCHECK(ref->covers_block16(0, 0, bx, by),
              "search displacement exceeds reference padding");
    return sad_16x16(cur, ref->row(by) + bx, ref->stride(), best);
  }
  void sad4(const Sample* cur, int x0, int y0, const int* dx, const int* dy,
            std::int64_t best, std::int64_t out[4]) const {
    const Sample* refs[4];
    for (int k = 0; k < 4; ++k) {
      QC_DCHECK(ref->covers_block16(0, 0, x0 + dx[k], y0 + dy[k]),
                "search displacement exceeds reference padding");
      refs[k] = ref->row(y0 + dy[k]) + x0 + dx[k];
    }
    simd::active_kernels().sad_16x16_x4(cur, refs, ref->stride(), best, out);
  }
  std::array<Sample, 256> compensate_halfpel(int x0, int y0, int dx2,
                                             int dy2) const {
    return motion_compensate_halfpel(*ref, x0, y0, dx2, dy2);
  }
};

struct ClampedRefView {
  static constexpr bool kBatch = false;

  const Frame* ref;

  std::int64_t sad(const Sample* cur, int bx, int by,
                   std::int64_t best) const {
    if (block16_interior(*ref, bx, by)) {
      return sad_16x16(cur, ref->row(by) + bx, ref->stride(), best);
    }
    return sad_clamped(cur, *ref, bx, by, best);
  }
  std::array<Sample, 256> compensate_halfpel(int x0, int y0, int dx2,
                                             int dy2) const {
    return motion_compensate_halfpel(*ref, x0, y0, dx2, dy2);
  }
};

/// Half-pel refinement around the full-pel winner.
template <typename RefView>
void refine_half_pel(const Sample* src, const RefView& view, int x0, int y0,
                     MotionResult& result) {
  for (int fy = -1; fy <= 1; ++fy) {
    for (int fx = -1; fx <= 1; ++fx) {
      if (fx == 0 && fy == 0) continue;
      const int dx2 = 2 * result.dx + fx;
      const int dy2 = 2 * result.dy + fy;
      const auto pred = view.compensate_halfpel(x0, y0, dx2, dy2);
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

/// The search over the contiguous 16x16 source block `cur` (row stride
/// 16) of the macroblock at (x0, y0): every SAD runs over two dense
/// spans with no per-pixel checks.
template <typename RefView>
MotionResult estimate_motion_impl(const Sample* cur, const RefView& view,
                                  int x0, int y0,
                                  const MotionConfig& config) {
  QC_EXPECT(config.radius >= 0, "search radius must be >= 0");
  MotionResult result;
  const int r = config.radius;
  result.points_total = (2 * r + 1) * (2 * r + 1);

  std::int64_t best = view.sad(cur, x0, y0, INT64_C(1) << 60);
  result.sad = best;
  result.points_examined = 1;
  const auto finish = [&]() -> MotionResult {
    result.dx2 = 2 * result.dx;
    result.dy2 = 2 * result.dy;
    if (config.half_pel) {
      refine_half_pel(cur, view, x0, y0, result);
    }
    return result;
  };
  if (config.early_exit_sad > 0 && best <= config.early_exit_sad) {
    return finish();  // the zero vector is already good enough
  }
  // Spiral: rings of increasing Chebyshev radius.  The padded view
  // batches ring candidates 4 per sad_16x16_x4 call (a ring has
  // 8 * ring candidates, always a multiple of 4).  Batching is
  // observationally identical to the sequential loop: the batched
  // kernel returns exact SADs, the scan below updates `best` and
  // checks the early-exit threshold in candidate order, and a
  // threshold hit discards the batch remainder exactly where the
  // sequential loop would have stopped.  The batch kernel prunes only
  // when all four candidates are already beaten (values >= best are
  // partial either way), which affects work done, never values
  // returned.
  if constexpr (RefView::kBatch) {
    int cdx[4];
    int cdy[4];
    std::int64_t sads[4];
    int n = 0;
    // Returns true when the early-exit threshold ends the search.
    const auto flush = [&]() -> bool {
      view.sad4(cur, x0, y0, cdx, cdy, best, sads);
      for (int k = 0; k < n; ++k) {
        ++result.points_examined;
        if (sads[k] < best) {
          best = sads[k];
          result.dx = cdx[k];
          result.dy = cdy[k];
          result.sad = sads[k];
        }
        if (config.early_exit_sad > 0 && best <= config.early_exit_sad) {
          return true;
        }
      }
      n = 0;
      return false;
    };
    for (int ring = 1; ring <= r; ++ring) {
      for (int dy = -ring; dy <= ring; ++dy) {
        const bool edge_row = std::abs(dy) == ring;
        const int step = edge_row ? 1 : 2 * ring;  // skip the ring interior
        for (int dx = -ring; dx <= ring; dx += step) {
          cdx[n] = dx;
          cdy[n] = dy;
          if (++n == 4 && flush()) return finish();
        }
      }
    }
    QC_DCHECK(n == 0, "ring candidate count must be a multiple of 4");
  } else {
    for (int ring = 1; ring <= r; ++ring) {
      for (int dy = -ring; dy <= ring; ++dy) {
        const bool edge_row = std::abs(dy) == ring;
        const int step = edge_row ? 1 : 2 * ring;  // skip the ring interior
        for (int dx = -ring; dx <= ring; dx += step) {
          const std::int64_t s =
              view.sad(cur, x0 + dx, y0 + dy, best);
          ++result.points_examined;
          if (s < best) {
            best = s;
            result.dx = dx;
            result.dy = dy;
            result.sad = s;
          }
          if (config.early_exit_sad > 0 && best <= config.early_exit_sad) {
            return finish();
          }
        }
      }
    }
  }
  return finish();
}

/// The macroblock at (x0, y0) of `current`, copied out contiguously.
std::array<Sample, 256> source_block(const Frame& current, int x0, int y0) {
  QC_EXPECT(x0 >= 0 && y0 >= 0 && x0 + kMacroBlockSize <= current.width() &&
                y0 + kMacroBlockSize <= current.height(),
            "macroblock origin out of bounds");
  std::array<Sample, 256> src;
  copy_block(current.row(y0) + x0, current.stride(), kMacroBlockSize,
             src.data());
  return src;
}

}  // namespace

int search_radius_for_level(std::size_t qi) {
  // Monotone in quality; level 0 is "zero vector only" matching the
  // paper's nearly-free Motion_Estimate at q=0 (215 cycles average).
  static constexpr int kRadii[8] = {0, 1, 2, 3, 4, 5, 6, 8};
  QC_EXPECT(qi < 8, "quality index out of range for search radius");
  return kRadii[qi];
}

MotionResult estimate_motion(const Frame& current, const Frame& reference,
                             int x0, int y0, const MotionConfig& config) {
  return estimate_motion_impl(source_block(current, x0, y0).data(),
                              ClampedRefView{&reference}, x0, y0, config);
}

MotionResult estimate_motion(const Frame& current,
                             const PaddedFrame& reference, int x0, int y0,
                             const MotionConfig& config) {
  return estimate_motion(source_block(current, x0, y0).data(), reference, x0,
                         y0, config);
}

MotionResult estimate_motion(const Sample* src, const PaddedFrame& reference,
                             int x0, int y0, const MotionConfig& config) {
  QC_EXPECT(x0 >= 0 && y0 >= 0 &&
                x0 + kMacroBlockSize <= reference.width() &&
                y0 + kMacroBlockSize <= reference.height(),
            "macroblock origin out of bounds");
  QC_EXPECT(config.radius + 1 <= reference.pad(),
            "search radius (plus half-pel margin) exceeds reference pad");
  return estimate_motion_impl(src, PaddedRefView{&reference}, x0, y0, config);
}

std::array<Sample, 256> motion_compensate(const Frame& reference, int x0,
                                          int y0, int dx, int dy) {
  std::array<Sample, 256> out;
  if (block16_interior(reference, x0 + dx, y0 + dy)) {
    copy_block(reference.row(y0 + dy) + x0 + dx, reference.stride(),
               kMacroBlockSize, out.data());
    return out;
  }
  for (int y = 0; y < kMacroBlockSize; ++y) {
    for (int x = 0; x < kMacroBlockSize; ++x) {
      out[static_cast<std::size_t>(y * kMacroBlockSize + x)] =
          reference.at_clamped(x0 + x + dx, y0 + y + dy);
    }
  }
  return out;
}

std::array<Sample, 256> motion_compensate(const PaddedFrame& reference,
                                          int x0, int y0, int dx, int dy) {
  QC_EXPECT(reference.covers_block16(x0, y0, dx, dy),
            "motion vector exceeds reference padding");
  std::array<Sample, 256> out;
  copy_block(reference.row(y0 + dy) + x0 + dx, reference.stride(),
             kMacroBlockSize, out.data());
  return out;
}

std::array<Sample, 256> motion_compensate_halfpel(const Frame& reference,
                                                  int x0, int y0, int dx2,
                                                  int dy2) {
  // Integer part (floor division toward minus infinity) + fraction.
  const int ix = (dx2 >= 0) ? dx2 / 2 : (dx2 - 1) / 2;
  const int iy = (dy2 >= 0) ? dy2 / 2 : (dy2 - 1) / 2;
  const int fx = dx2 - 2 * ix;  // 0 or 1
  const int fy = dy2 - 2 * iy;
  if (fx == 0 && fy == 0) {
    return motion_compensate(reference, x0, y0, ix, iy);
  }
  std::array<Sample, 256> out;
  const int bx = x0 + ix;
  const int by = y0 + iy;
  // Interpolation reads one extra pixel right/down; hoist the bounds
  // check for the whole (17x17-covering) read.
  if (bx >= 0 && by >= 0 && bx + kMacroBlockSize + 1 <= reference.width() &&
      by + kMacroBlockSize + 1 <= reference.height()) {
    halfpel_block16(reference.row(by) + bx, reference.stride(), fx, fy, out);
    return out;
  }
  for (int y = 0; y < kMacroBlockSize; ++y) {
    for (int x = 0; x < kMacroBlockSize; ++x) {
      const int cx = bx + x;
      const int cy = by + y;
      const int a = reference.at_clamped(cx, cy);
      int v;
      if (fx == 1 && fy == 0) {
        v = (a + reference.at_clamped(cx + 1, cy) + 1) / 2;
      } else if (fx == 0) {  // fy == 1
        v = (a + reference.at_clamped(cx, cy + 1) + 1) / 2;
      } else {
        v = (a + reference.at_clamped(cx + 1, cy) +
             reference.at_clamped(cx, cy + 1) +
             reference.at_clamped(cx + 1, cy + 1) + 2) / 4;
      }
      out[static_cast<std::size_t>(y * kMacroBlockSize + x)] =
          static_cast<Sample>(v);
    }
  }
  return out;
}

std::array<Sample, 256> motion_compensate_halfpel(const PaddedFrame& reference,
                                                  int x0, int y0, int dx2,
                                                  int dy2) {
  const int ix = (dx2 >= 0) ? dx2 / 2 : (dx2 - 1) / 2;
  const int iy = (dy2 >= 0) ? dy2 / 2 : (dy2 - 1) / 2;
  const int fx = dx2 - 2 * ix;  // 0 or 1
  const int fy = dy2 - 2 * iy;
  QC_EXPECT(reference.covers_block16(x0, y0, ix, iy),
            "motion vector exceeds reference padding");
  std::array<Sample, 256> out;
  if (fx == 0 && fy == 0) {
    copy_block(reference.row(y0 + iy) + x0 + ix, reference.stride(),
               kMacroBlockSize, out.data());
  } else {
    halfpel_block16(reference.row(y0 + iy) + x0 + ix, reference.stride(),
                    fx, fy, out);
  }
  return out;
}

}  // namespace qosctrl::media
