// Block motion estimation — the encoder's quality-parameterized action.
//
// Full-pel spiral search over a square window whose radius grows with
// the quality level, with optional early termination when a match is
// already good enough.  The returned `points_examined` is the content-
// coupled work measure the virtual platform charges cycles for: static
// scenes terminate after a few points (cheap), scene cuts and fast
// motion exhaust the window (expensive), exactly the load profile the
// paper's controller reacts to.
//
// Search and compensation read the luma reference in place, through its
// margin (plane.h): the border is replicated once per frame, so every
// candidate, border macroblocks included, is two dense spans.
#pragma once

#include <array>

#include "media/frame.h"
#include "rt/types.h"

namespace qosctrl::media {

/// Result of estimating motion for one macroblock.  Vectors are kept
/// both as the best full-pel offset (dx, dy) and in half-pel units
/// (dx2, dy2): without refinement dx2 == 2*dx; with half-pel
/// refinement enabled dx2 may carry an odd (fractional) component.
struct MotionResult {
  int dx = 0;                ///< best motion vector, full pel
  int dy = 0;
  int dx2 = 0;               ///< best vector in half-pel units
  int dy2 = 0;
  std::int64_t sad = 0;      ///< SAD at the best vector
  int points_examined = 0;   ///< search points actually evaluated
  int points_total = 0;      ///< window size (all candidate points)
};

/// Search configuration.
struct MotionConfig {
  int radius = 8;  ///< window is [-radius, +radius]^2 (Chebyshev)
  /// Early-termination threshold on SAD (per 256-pixel macroblock);
  /// <= 0 disables early exit.
  std::int64_t early_exit_sad = 512;
  /// Refine the full-pel winner over its 8 half-pel neighbors
  /// (bilinear interpolation).  Adds at most 8 SAD evaluations.
  bool half_pel = false;
};

/// The widest search radius search_radius_for_level returns.
inline constexpr int kMaxSearchRadius = 8;

/// Search window radius for quality level index `qi` (0..7), matching
/// the paper's monotone ME cost table: level 0 means "no search"
/// (zero-vector only), level 7 the widest window.
int search_radius_for_level(std::size_t qi);

/// Fused early-exit SAD between a cached 16x16 block `cur` (contiguous,
/// stride 16) and the 16x16 block at `ref` with row stride
/// `ref_stride`.  Returns the exact SAD when it is < `best`; aborts
/// with a partial sum >= `best` (checked every 4 rows) as soon as the
/// block cannot win.  Dispatches to the active SIMD backend
/// (media/simd/kernels.h); all backends return identical values.
std::int64_t sad_16x16(const Sample* cur, const Sample* ref,
                       std::ptrdiff_t ref_stride, std::int64_t best);

/// Estimates motion of the macroblock at (x0, y0) against `reference`.
/// `src` is the 16x16 source block at (x0, y0) of the current frame
/// (contiguous, row stride 16; read_macroblock copies one out, the
/// encoder passes the block Grab read).  Candidates are visited in
/// spiral (increasing Chebyshev ring) order starting at the zero
/// vector; ring candidates run 4 per SIMD kernel call.  The search
/// window (radius + 1 for half-pel) must fit in reference.pad(), whose
/// border is filled.
MotionResult estimate_motion(const Sample* src, const Frame& reference,
                             int x0, int y0, const MotionConfig& config);

/// Motion-compensated 16x16 prediction from `reference` at
/// (x0, y0) displaced by (dx2, dy2) half pels: a copy for even
/// vectors, bilinear interpolation with standard rounding otherwise
/// ((a+b+1)/2 axis-aligned, (a+b+c+d+2)/4 diagonal).  The block plus
/// the interpolation's extra column and row must stay inside the pad.
std::array<Sample, 256> motion_compensate_halfpel(const Frame& reference,
                                                  int x0, int y0, int dx2,
                                                  int dy2);

}  // namespace qosctrl::media
