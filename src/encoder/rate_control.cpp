#include "encoder/rate_control.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace qosctrl::enc {
namespace {

/// Dead zone as a fraction of the per-frame budget: no QP change when
/// |buffer| <= kDeadZone * target.
constexpr double kDeadZone = 0.15;
/// Step-2 threshold: QP moves by 2 when |buffer| > kStep2 * target.
constexpr double kStep2 = 1.0;

}  // namespace

RateController::RateController(const RateControlConfig& config)
    : target_(kBitrateBps / config.frame_rate), qp_(kInitialQp) {
  // An infinite rate would make the per-frame budget 0 or infinite and
  // silently drive QP to an end stop.
  QC_EXPECT(std::isfinite(config.frame_rate) && config.frame_rate > 0,
            "frame rate must be finite and positive");
}

void RateController::frame_encoded(std::int64_t bits) {
  QC_EXPECT(bits >= 0, "frame bit cost must be non-negative");
  buffer_ += static_cast<double>(bits) - target_;
  // The virtual buffer may go arbitrarily negative in long static
  // scenes; cap the credit at a few frames so QP recovers promptly.
  buffer_ = std::max(buffer_, -4.0 * target_);
  adjust_qp();
}

void RateController::frame_skipped() {
  buffer_ -= target_;
  buffer_ = std::max(buffer_, -4.0 * target_);
  adjust_qp();
}

void RateController::adjust_qp() {
  const double err = buffer_ / target_;
  int delta = 0;
  if (err > kStep2) {
    delta = 2;
  } else if (err > kDeadZone) {
    delta = 1;
  } else if (err < -kStep2) {
    delta = -2;
  } else if (err < -kDeadZone) {
    delta = -1;
  }
  qp_ = std::clamp(qp_ + delta, media::kMinQp, media::kMaxQp);
}

}  // namespace qosctrl::enc
