// Luma frames: planes that tile into macroblocks.
//
// The encoder substrate works on 8-bit luma frames split into 16x16
// macroblocks of 256 pixels (paper Section 3) which are themselves
// processed as four 8x8 transform blocks.  A Frame is a media::Plane
// (plane.h, the one pixel type) whose sides are multiples of 16, plus
// the macroblock helpers; chroma planes ride along in media::YuvFrame.
#pragma once

#include <array>
#include <utility>

#include "media/plane.h"

namespace qosctrl::media {

/// A single 8-bit luma frame.
class Frame : public Plane {
 public:
  Frame() = default;

  /// Dimensions must be positive multiples of the macroblock size so a
  /// frame tiles exactly into macroblocks.
  Frame(int width, int height, Sample fill = 0, int pad = 0)
      : Plane(width, height, fill, pad, kMacroBlockSize) {}

  int mb_cols() const { return width() / kMacroBlockSize; }
  int mb_rows() const { return height() / kMacroBlockSize; }
  int num_macroblocks() const { return mb_cols() * mb_rows(); }

  /// Top-left pixel coordinates of macroblock `mb` in raster order.
  std::pair<int, int> mb_origin(int mb) const;
};

/// Copies the 16x16 macroblock at (x0, y0) into a 256-entry array.
std::array<Sample, 256> read_macroblock(const Frame& frame, int x0, int y0);

}  // namespace qosctrl::media
