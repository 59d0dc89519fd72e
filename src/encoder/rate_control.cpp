#include "encoder/rate_control.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace qosctrl::enc {

RateController::RateController(const RateControlConfig& config)
    : config_(config),
      target_(config.bitrate_bps / config.frame_rate),
      qp_(config.initial_qp) {
  // An infinite rate would make the per-frame budget 0 or infinite and
  // silently drive QP to an end stop.
  QC_EXPECT(std::isfinite(config.bitrate_bps) && config.bitrate_bps > 0,
            "bitrate must be finite and positive");
  QC_EXPECT(std::isfinite(config.frame_rate) && config.frame_rate > 0,
            "frame rate must be finite and positive");
  QC_EXPECT(config.initial_qp >= media::kMinQp &&
                config.initial_qp <= media::kMaxQp,
            "initial QP out of range");
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
  if (err > config_.step2) {
    delta = 2;
  } else if (err > config_.dead_zone) {
    delta = 1;
  } else if (err < -config_.step2) {
    delta = -2;
  } else if (err < -config_.dead_zone) {
    delta = -1;
  }
  qp_ = std::clamp(qp_ + delta, media::kMinQp, media::kMaxQp);
}

}  // namespace qosctrl::enc
