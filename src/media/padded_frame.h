// Border-extended (padded) reference frames.
//
// Motion search and compensation read blocks displaced off the frame
// edge.  A PaddedFrame replicates the border once into a margin of
// `pad` pixels on every side, so the kernels read contiguous rows for
// any displacement within the margin with *no* per-pixel bounds or
// clamp logic — the clamping is hoisted into a one-time pad step that
// costs O(perimeter) per frame instead of O(pixels) per search
// candidate.  It is the only luma reference motion search and
// compensation read (media/motion.h).
//
// row(y) stays valid for x in [-pad, width + pad) and y in
// [-pad, height + pad), and replicates Frame::at_clamped exactly over
// that window (tested bit-exact).
#pragma once

#include <vector>

#include "media/frame.h"

namespace qosctrl::media {

class PaddedFrame {
 public:
  /// Default margin: covers the widest encoder search window (radius 8)
  /// plus half-pel interpolation with room to spare, and bounds the
  /// vector range a bitstream may carry (enc::kMaxVectorHalfPel).
  static constexpr int kDefaultPad = 16;

  PaddedFrame() = default;
  explicit PaddedFrame(const Frame& frame, int pad = kDefaultPad);

  /// Re-pads from `frame` in place; reallocates only when the geometry
  /// changed.  This is the once-per-frame step the encoder runs when
  /// the reference is swapped.
  void update_from(const Frame& frame, int pad = kDefaultPad);

  int width() const { return width_; }
  int height() const { return height_; }
  int pad() const { return pad_; }
  bool empty() const { return data_.empty(); }

  /// Distance in samples between vertically adjacent pixels.
  int stride() const { return stride_; }

  /// Pointer to (0, y) of the interior image; valid for
  /// x in [-pad, width + pad).  y may likewise range over
  /// [-pad, height + pad).
  const Sample* row(int y) const {
    QC_DCHECK(y >= -pad_ && y < height_ + pad_, "padded row out of range");
    return origin_ + static_cast<std::ptrdiff_t>(y) * stride_;
  }

  /// Border-replicated read, matching Frame::at_clamped for
  /// coordinates within the margin.
  Sample at(int x, int y) const {
    QC_DCHECK(x >= -pad_ && x < width_ + pad_, "padded column out of range");
    return row(y)[x];
  }

  /// True when a 16x16 block read at (x0 + dx, y0 + dy) — plus one
  /// extra pixel right/down for half-pel interpolation — stays inside
  /// the padded surface.
  bool covers_block16(int x0, int y0, int dx, int dy) const {
    return x0 + dx >= -pad_ && y0 + dy >= -pad_ &&
           x0 + dx + kMacroBlockSize + 1 <= width_ + pad_ &&
           y0 + dy + kMacroBlockSize + 1 <= height_ + pad_;
  }

 private:
  int width_ = 0;
  int height_ = 0;
  int pad_ = 0;
  int stride_ = 0;
  Sample* origin_ = nullptr;  ///< &data_[pad_ * stride_ + pad_]
  std::vector<Sample> data_;
};

}  // namespace qosctrl::media
