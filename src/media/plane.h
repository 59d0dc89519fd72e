// A standalone sample plane for chroma (4:2:0 subsampled) data.
//
// Luma lives in media::Frame, which enforces 16-pixel macroblock
// tiling; chroma planes are half-resolution and tile into 8x8 blocks,
// so they get their own lighter type with the same pixel accessors.
#pragma once

#include <cstdint>
#include <vector>

#include "media/frame.h"

namespace qosctrl::media {

/// An 8-bit sample plane whose dimensions are multiples of 8.
class Plane {
 public:
  Plane() = default;
  Plane(int width, int height, Sample fill = 128);

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return data_.empty(); }

  Sample at(int x, int y) const {
    QC_DCHECK(in_bounds(x, y), "plane pixel out of bounds");
    return data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(x)];
  }
  void set(int x, int y, Sample v) {
    QC_DCHECK(in_bounds(x, y), "plane pixel out of bounds");
    data_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
          static_cast<std::size_t>(x)] = v;
  }

  /// Distance in samples between vertically adjacent pixels.
  int stride() const { return width_; }

  /// Raw pointer to row `y` (column 0); bounds hoisted to the call.
  const Sample* row(int y) const {
    QC_DCHECK(y >= 0 && y < height_, "plane row out of bounds");
    return data_.data() +
           static_cast<std::size_t>(y) * static_cast<std::size_t>(width_);
  }
  Sample* row(int y) {
    QC_DCHECK(y >= 0 && y < height_, "plane row out of bounds");
    return data_.data() +
           static_cast<std::size_t>(y) * static_cast<std::size_t>(width_);
  }
  Sample at_clamped(int x, int y) const;
  bool in_bounds(int x, int y) const {
    return x >= 0 && y >= 0 && x < width_ && y < height_;
  }

  const std::vector<Sample>& data() const { return data_; }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<Sample> data_;
};

/// Motion compensation on a chroma plane with a *luma* half-pel vector:
/// chroma moves at half the luma displacement, i.e. quarter-pel chroma
/// positions rounded to the nearest half pel (the classic MPEG-style
/// approximation: cdx2 = round-to-even-aware dx2 / 2).  Returns the 8x8
/// prediction block at (x0, y0).
std::array<Sample, 64> chroma_motion_compensate(const Plane& reference,
                                                int x0, int y0, int luma_dx2,
                                                int luma_dy2);

/// DC intra prediction for the 8x8 chroma block at (x0, y0): the mean
/// of the reconstructed samples directly above and to the left, 128
/// when no neighbors exist.  Shared by encoder and decoder so intra
/// chroma reconstruction is bit-exact.
std::array<Sample, 64> chroma_dc_prediction(const Plane& recon, int x0,
                                            int y0);

/// Mean squared error between two planes (for chroma PSNR).
double plane_sse(const Plane& a, const Plane& b);

}  // namespace qosctrl::media
