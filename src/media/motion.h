// Block motion estimation — the encoder's quality-parameterized action.
//
// Full-pel spiral search over a square window whose radius grows with
// the quality level, with optional early termination when a match is
// already good enough.  The returned `points_examined` is the content-
// coupled work measure the virtual platform charges cycles for: static
// scenes terminate after a few points (cheap), scene cuts and fast
// motion exhaust the window (expensive), exactly the load profile the
// paper's controller reacts to.
#pragma once

#include <vector>

#include "media/frame.h"
#include "media/padded_frame.h"
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

/// Estimates motion of the macroblock at (x0, y0) of `current` against
/// `reference`.  Candidates are visited in spiral (increasing Chebyshev
/// ring) order starting at the zero vector.  The current macroblock is
/// read once per call; each candidate runs the fused early-exit SAD
/// kernel, falling back to the border-clamped scalar path only for
/// candidate blocks that overlap the frame edge.
MotionResult estimate_motion(const Frame& current, const Frame& reference,
                             int x0, int y0, const MotionConfig& config);

/// Fast variant against a pre-padded reference: every candidate —
/// border macroblocks included — runs the span kernel with no clamping
/// branches, and ring candidates are batched 4 per SIMD kernel call.
/// Bit-exact with the Frame overload as long as the search window
/// (radius + 1 for half-pel) fits in reference.pad().  This is the
/// path the encoder uses, amortizing the pad over a whole frame.
MotionResult estimate_motion(const Frame& current,
                             const PaddedFrame& reference, int x0, int y0,
                             const MotionConfig& config);

/// The padded search for a macroblock whose source pixels the caller
/// already holds: `src` is the 16x16 block at (x0, y0) of the current
/// frame (contiguous, row stride 16), as intra_predict takes it.  The
/// Frame overloads copy that block out and search the same way; the
/// encoder passes the block Grab read.
MotionResult estimate_motion(const Sample* src, const PaddedFrame& reference,
                             int x0, int y0, const MotionConfig& config);

/// Motion-compensated 16x16 prediction from `reference` at
/// (x0 + dx, y0 + dy), border-clamped.
std::array<Sample, 256> motion_compensate(const Frame& reference, int x0,
                                          int y0, int dx, int dy);

/// Half-pel motion compensation: (dx2, dy2) in half-pel units.
/// Fractional positions use bilinear interpolation with standard
/// rounding ((a+b+1)/2 axis-aligned, (a+b+c+d+2)/4 diagonal).  The
/// even-vector case reduces exactly to motion_compensate.
std::array<Sample, 256> motion_compensate_halfpel(const Frame& reference,
                                                  int x0, int y0, int dx2,
                                                  int dy2);

/// Padded variants: contiguous row reads, no per-pixel clamping.
/// Bit-exact with the Frame overloads for displacements within the pad.
std::array<Sample, 256> motion_compensate(const PaddedFrame& reference,
                                          int x0, int y0, int dx, int dy);
std::array<Sample, 256> motion_compensate_halfpel(const PaddedFrame& reference,
                                                  int x0, int y0, int dx2,
                                                  int dy2);

}  // namespace qosctrl::media
