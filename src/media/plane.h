// 8-bit sample planes: the one pixel type of the media layer.
//
// A Plane is a row-major 8-bit image whose sides are multiples of 8,
// so it tiles exactly into 8x8 transform blocks.  Chroma (4:2:0,
// half-resolution) is a Plane as it stands; luma is a media::Frame
// (frame.h), a Plane that also tiles into 16x16 macroblocks.
//
// A plane may carry a margin of `pad` samples on every side.  A
// reference picture (media::YuvFrame, yuv.h) does: fill_border()
// replicates the edges into the margin once, after the last
// macroblock is written, and motion search and compensation then read
// blocks displaced past the edge as plain rows, with no per-pixel
// clamping.  Every accessor addresses the interior through the one
// stride, width + 2 * pad.
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

/// An 8-bit sample plane whose dimensions are multiples of 8, with an
/// optional border margin.
class Plane {
 public:
  Plane() = default;
  Plane(int width, int height, Sample fill = 128, int pad = 0)
      : Plane(width, height, fill, pad, kTransformSize) {}

  int width() const { return width_; }
  int height() const { return height_; }
  /// Width of the margin on every side, in samples.
  int pad() const { return pad_; }
  bool empty() const { return data_.empty(); }

  Sample at(int x, int y) const {
    QC_DCHECK(in_bounds(x, y), "pixel out of bounds");
    return row(y)[x];
  }
  void set(int x, int y, Sample v) {
    QC_DCHECK(in_bounds(x, y), "pixel out of bounds");
    row(y)[x] = v;
  }

  /// Distance in samples between vertically adjacent pixels: width +
  /// 2 * pad.
  int stride() const { return stride_; }

  /// Raw pointer to (0, y); valid for x in [-pad, width + pad), and y
  /// may likewise range over [-pad, height + pad).  The bounds check
  /// is hoisted to the call, so kernels iterating a row pay no
  /// per-pixel checks.
  const Sample* row(int y) const {
    QC_DCHECK(y >= -pad_ && y < height_ + pad_, "row out of bounds");
    return data_.data() + origin_ + static_cast<std::ptrdiff_t>(y) * stride_;
  }
  Sample* row(int y) {
    QC_DCHECK(y >= -pad_ && y < height_ + pad_, "row out of bounds");
    return data_.data() + origin_ + static_cast<std::ptrdiff_t>(y) * stride_;
  }

  bool in_bounds(int x, int y) const {
    return x >= 0 && y >= 0 && x < width_ && y < height_;
  }

  /// Replicates the edge samples into the margin, in place: afterwards
  /// row(y)[x] reads the interior sample nearest to (x, y) anywhere in
  /// the margin.  O(pad * perimeter); a no-op without a margin.
  void fill_border();

  /// The whole buffer, margin included, row-major with stride().
  /// Without a margin that is exactly the width * height pixels.
  const std::vector<Sample>& data() const { return data_; }
  std::vector<Sample>& data() { return data_; }

 protected:
  /// A plane whose sides must be positive multiples of `tile`.
  Plane(int width, int height, Sample fill, int pad, int tile);

 private:
  int width_ = 0;
  int height_ = 0;
  int pad_ = 0;
  int stride_ = 0;
  std::ptrdiff_t origin_ = 0;  ///< index of (0, 0): pad * stride + pad
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

/// Motion compensation on a chroma plane with a *luma* half-pel vector:
/// chroma moves at half the luma displacement, i.e. quarter-pel chroma
/// positions rounded to the nearest half pel (the classic MPEG-style
/// approximation: cdx2 = round-to-even-aware dx2 / 2).  Returns the 8x8
/// prediction block at (x0, y0), read in place: the taps must lie
/// inside the reference's filled margin.
std::array<Sample, 64> chroma_motion_compensate(const Plane& reference,
                                                int x0, int y0, int luma_dx2,
                                                int luma_dy2);

/// DC intra prediction for the 8x8 chroma block at (x0, y0): the mean
/// of the reconstructed samples directly above and to the left, 128
/// when no neighbors exist.  Shared by encoder and decoder so intra
/// chroma reconstruction is bit-exact.
std::array<Sample, 64> chroma_dc_prediction(const Plane& recon, int x0,
                                            int y0);

}  // namespace qosctrl::media
