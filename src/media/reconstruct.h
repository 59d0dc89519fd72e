// The inverse path of the hybrid coder: quantized levels back to
// pixels.  FrameEncoder's Reconstruct and enc::decode_frame both run
// every 8x8 block through the one routine below, so the encoder's
// reference and the decoder's picture are bit-exact by construction.
#pragma once

#include <cstddef>

#include "media/frame.h"

namespace qosctrl::media {

/// Rebuilds one 8x8 block: dequantizes `levels` at `qp`, inverse-
/// transforms them, adds the prediction at `pred` (row stride
/// `pred_stride`), saturates to [0, 255] and stores the block at `dst`
/// (row stride `dst_stride`).
void reconstruct_block8(const Coeffs8& levels, int qp, const Sample* pred,
                        std::ptrdiff_t pred_stride, Sample* dst,
                        std::ptrdiff_t dst_stride);

}  // namespace qosctrl::media
