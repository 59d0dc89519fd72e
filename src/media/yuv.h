// 4:2:0 YCbCr frames: a full-resolution luma Frame plus two
// half-resolution chroma Planes.
//
// The paper's PSNR series is a single per-frame number, reported here
// (as is conventional) on luma; chroma is carried end to end through
// motion compensation, transform coding, and the bitstream so the
// encoder is a complete codec rather than a luma-only toy.
// quality::measure scores any plane, chroma included.
//
// A YuvFrame built by its constructor is a reference picture: the
// encoder reconstructs into one and the decoder decodes into one, and
// motion search and compensation read the next frame's prediction
// from it in place.  Its planes carry the reference margins below,
// and fill_borders() replicates the edges into them once the last
// macroblock is written.  Input frames are never a reference, so
// media::SyntheticVideo assembles them from planes without a margin.
#pragma once

#include "media/frame.h"

namespace qosctrl::media {

/// Margins of a reference picture, in samples: the widest reach past
/// the frame edge of a luma block, and of a chroma block, compensated
/// by any vector a stream may carry (enc::kMaxVectorHalfPel, which
/// pins both).
inline constexpr int kLumaPad = 16;
inline constexpr int kChromaPad = 8;

struct YuvFrame {
  Frame y;
  Plane cb;
  Plane cr;

  YuvFrame() = default;
  YuvFrame(int width, int height, Sample luma_fill = 128,
           Sample chroma_fill = 128)
      : y(width, height, luma_fill, kLumaPad),
        cb(width / 2, height / 2, chroma_fill, kChromaPad),
        cr(width / 2, height / 2, chroma_fill, kChromaPad) {}

  int width() const { return y.width(); }
  int height() const { return y.height(); }
  bool empty() const { return y.empty(); }

  /// Replicates every plane's edges into its margin.
  void fill_borders() {
    y.fill_border();
    cb.fill_border();
    cr.fill_border();
  }
};

}  // namespace qosctrl::media
