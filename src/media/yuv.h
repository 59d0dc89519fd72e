// 4:2:0 YCbCr frames: a full-resolution luma Frame plus two
// half-resolution chroma Planes.
//
// The paper's PSNR series is a single per-frame number, reported here
// (as is conventional) on luma; chroma is carried end to end through
// motion compensation, transform coding, and the bitstream so the
// encoder is a complete codec rather than a luma-only toy.
// quality::psnr scores any plane, chroma included.
#pragma once

#include "media/frame.h"

namespace qosctrl::media {

struct YuvFrame {
  Frame y;
  Plane cb;
  Plane cr;

  YuvFrame() = default;
  YuvFrame(int width, int height, Sample luma_fill = 128,
           Sample chroma_fill = 128)
      : y(width, height, luma_fill),
        cb(width / 2, height / 2, chroma_fill),
        cr(width / 2, height / 2, chroma_fill) {}

  int width() const { return y.width(); }
  int height() const { return y.height(); }
  bool empty() const { return y.empty(); }
};

}  // namespace qosctrl::media
