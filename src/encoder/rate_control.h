// Frame-level rate control steering the quantization parameter toward a
// target bitrate (paper: 1.1 Mbit/s at 25 frames/s).
//
// A classic virtual-buffer law: the controller tracks the signed excess
// of produced bits over the per-frame budget and nudges QP by at most
// +/-2 per frame.  Skipped frames produce no bits, so their budget
// drains the virtual buffer and QP falls — this reproduces the paper's
// observation that "the bits corresponding to skipped frames are used
// to achieve better quality" in the constant-quality runs.
#pragma once

#include <cstdint>

#include "media/quant.h"

namespace qosctrl::enc {

/// Target bitrate (bits per second) and the QP of the first frame.
inline constexpr double kBitrateBps = 1.1e6;
inline constexpr int kInitialQp = 8;

struct RateControlConfig {
  double frame_rate = 25.0;  ///< frames per second
};

class RateController {
 public:
  explicit RateController(const RateControlConfig& config = {});

  /// QP to use for the next frame.
  int qp() const { return qp_; }

  /// Per-frame bit budget: kBitrateBps / frame_rate.
  double target_bits_per_frame() const { return target_; }

  /// Reports an encoded frame's bit cost and updates QP.
  void frame_encoded(std::int64_t bits);

  /// Reports a skipped frame (no bits produced; budget is reclaimed).
  void frame_skipped();

 private:
  void adjust_qp();

  double target_;
  double buffer_ = 0.0;
  int qp_;
};

}  // namespace qosctrl::enc
