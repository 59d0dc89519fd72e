// The property the quality subsystem exists to make testable:
// degrading a stream's service budget never *increases* its measured
// mean PSNR.  The mechanism is indirect — a smaller budget forces the
// controller to lower ME quality levels, worse prediction costs more
// residual bits, and the rate controller answers with a higher QP —
// so the property is pinned under an active bitrate constraint over a
// ladder of budgets, for several content seeds.  (At an unconstrained
// bitrate QP never moves and the PSNR differences vanish into
// rounding; mean ME quality still falls, which is asserted alongside.)
#include <gtest/gtest.h>

#include "pipeline/simulation.h"

namespace qosctrl::pipe {
namespace {

constexpr int kFrames = 40;
constexpr rt::Cycles kMinBudget = 12 * 176000;  ///< qmin worst case

PipelineConfig rate_limited_config(std::uint64_t seed) {
  PipelineConfig cfg;
  cfg.video.width = 64;
  cfg.video.height = 48;
  cfg.video.num_frames = kFrames;
  cfg.video.num_scenes = 4;
  cfg.video.seed = seed * 77 + 1;
  cfg.seed = seed;
  cfg.frame_period = 19555569 * 12 / 99 * 4;  // slow camera, rich window
  // 6000 bits per frame: tight enough that QP must adapt.
  cfg.rate.frame_rate = enc::kBitrateBps / 6000.0;
  return cfg;
}

struct RunStats {
  double mean_psnr = 0.0;
  double mean_quality = 0.0;
};

RunStats run_at_budget(const PipelineConfig& cfg, double fraction) {
  rt::Cycles budget = static_cast<rt::Cycles>(
      static_cast<double>(cfg.frame_period) * fraction);
  budget = std::max(kMinBudget, budget / 12 * 12);
  StreamSession session(cfg, budget);
  RunStats s;
  for (int i = 0; i < kFrames; ++i) {
    const FrameRecord rec = session.encode(i, 0);
    s.mean_psnr += rec.psnr;
    s.mean_quality += rec.mean_quality;
  }
  s.mean_psnr /= kFrames;
  s.mean_quality /= kFrames;
  return s;
}

TEST(PsnrBudgetProperty, DegradingTheBudgetNeverIncreasesMeanPsnr) {
  for (const std::uint64_t seed : {42u, 7u, 9u}) {
    const PipelineConfig cfg = rate_limited_config(seed);
    RunStats previous = run_at_budget(cfg, 1.0);
    for (const double fraction : {0.5, 0.2228}) {
      const RunStats degraded = run_at_budget(cfg, fraction);
      EXPECT_LE(degraded.mean_psnr, previous.mean_psnr)
          << "seed " << seed << " fraction " << fraction;
      // The mechanism: the controller really is granting lower ME
      // quality at the smaller budget.
      EXPECT_LT(degraded.mean_quality, previous.mean_quality)
          << "seed " << seed << " fraction " << fraction;
      previous = degraded;
    }
  }
}

}  // namespace
}  // namespace qosctrl::pipe
