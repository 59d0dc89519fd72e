// Luma frames and block views.
//
// The encoder substrate works on 8-bit luma frames split into 16x16
// macroblocks of 256 pixels (paper Section 3) which are themselves
// processed as four 8x8 transform blocks.  Chroma is omitted: the
// paper's PSNR is a single per-frame series and luma carries the
// quality signal; this halves nothing in the control path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/check.h"

namespace qosctrl::media {

/// Pixel residuals / predictions use 16-bit signed samples.
using Sample = std::uint8_t;
using Residual = std::int16_t;

/// An 8x8 residual block in row-major order.
using Block8 = std::array<Residual, 64>;
/// An 8x8 block of transform coefficients.
using Coeffs8 = std::array<std::int32_t, 64>;

inline constexpr int kMacroBlockSize = 16;   ///< 16x16 = 256 pixels
inline constexpr int kTransformSize = 8;     ///< 8x8 DCT blocks

/// A single 8-bit luma frame.
class Frame {
 public:
  Frame() = default;

  /// Dimensions must be positive multiples of the macroblock size so a
  /// frame tiles exactly into macroblocks.
  Frame(int width, int height, Sample fill = 0);

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return data_.empty(); }

  int mb_cols() const { return width_ / kMacroBlockSize; }
  int mb_rows() const { return height_ / kMacroBlockSize; }
  int num_macroblocks() const { return mb_cols() * mb_rows(); }

  Sample at(int x, int y) const {
    QC_DCHECK(in_bounds(x, y), "pixel out of bounds");
    return data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(x)];
  }
  void set(int x, int y, Sample v) {
    QC_DCHECK(in_bounds(x, y), "pixel out of bounds");
    data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
          static_cast<std::size_t>(x)] = v;
  }

  /// Distance in samples between vertically adjacent pixels.
  int stride() const { return width_; }

  /// Raw pointer to row `y` (column 0); valid for `width()` samples.
  /// The bounds check is hoisted to the call, so kernels iterating a
  /// row pay no per-pixel checks.
  const Sample* row(int y) const {
    QC_DCHECK(y >= 0 && y < height_, "row out of bounds");
    return data_.data() +
           static_cast<std::size_t>(y) * static_cast<std::size_t>(width_);
  }
  Sample* row(int y) {
    QC_DCHECK(y >= 0 && y < height_, "row out of bounds");
    return data_.data() +
           static_cast<std::size_t>(y) * static_cast<std::size_t>(width_);
  }

  /// Clamped read: coordinates outside the frame are clamped to the
  /// border (used by motion compensation near edges).
  Sample at_clamped(int x, int y) const;

  bool in_bounds(int x, int y) const {
    return x >= 0 && y >= 0 && x < width_ && y < height_;
  }

  const std::vector<Sample>& data() const { return data_; }
  std::vector<Sample>& data() { return data_; }

  /// Top-left pixel coordinates of macroblock `mb` in raster order.
  std::pair<int, int> mb_origin(int mb) const;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<Sample> data_;
};

/// Copies the n x n block at `src` (row stride `stride`) into the
/// contiguous buffer `dst` (row stride n).  Inline, so a constant `n`
/// turns each row into one fixed-size move.
inline void copy_block(const Sample* src, std::ptrdiff_t stride, int n,
                       Sample* dst) {
  for (int y = 0; y < n; ++y) {
    std::memcpy(dst, src, static_cast<std::size_t>(n));
    src += stride;
    dst += n;
  }
}

/// Copies the 16x16 macroblock at (x0, y0) into a 256-entry array.
std::array<Sample, 256> read_macroblock(const Frame& frame, int x0, int y0);

// ---------------------------------------------------------------------------
// Metrics (paper: PSNR between input and output frames)

/// Integer sum of squared errors over whole frames (equal dimensions
/// required; SIMD-dispatched, exact).  The one kernel call site —
/// frame_sse, psnr, and quality::frame_sse all route through it.
std::int64_t frame_sse_i64(const Frame& a, const Frame& b);

/// Sum of squared errors over whole frames (equal dimensions required).
double frame_sse(const Frame& a, const Frame& b);

/// PSNR in dB from an integer sum of squared errors over `pixels`
/// 8-bit samples; `cap` bounds the value for identical inputs
/// (sse == 0).  The single home of the dB formula — psnr() below and
/// quality::psnr both route through it.
double psnr_from_sse(std::int64_t sse, std::int64_t pixels,
                     double cap = 99.0);

/// Peak signal-to-noise ratio in dB; identical frames yield `cap`
/// (default 99 dB) rather than infinity.
double psnr(const Frame& a, const Frame& b, double cap = 99.0);

}  // namespace qosctrl::media
