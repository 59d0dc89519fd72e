#include "encoder/rate_control.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/rng.h"

namespace qosctrl::enc {
namespace {

TEST(RateController, TargetBitsPerFrame) {
  RateControlConfig cfg;
  cfg.bitrate_bps = 1.1e6;
  cfg.frame_rate = 25.0;
  const RateController rc(cfg);
  EXPECT_DOUBLE_EQ(rc.target_bits_per_frame(), 44000.0);
  EXPECT_EQ(rc.qp(), cfg.initial_qp);
}

TEST(RateController, OverBudgetRaisesQp) {
  RateController rc;
  const int qp0 = rc.qp();
  rc.frame_encoded(static_cast<std::int64_t>(
      rc.target_bits_per_frame() * 3));
  EXPECT_GT(rc.qp(), qp0);
}

TEST(RateController, UnderBudgetLowersQp) {
  RateController rc;
  const int qp0 = rc.qp();
  rc.frame_encoded(0);
  EXPECT_LT(rc.qp(), qp0);
}

TEST(RateController, DeadZoneHoldsQp) {
  RateController rc;
  const int qp0 = rc.qp();
  rc.frame_encoded(static_cast<std::int64_t>(
      rc.target_bits_per_frame() * 1.05));
  EXPECT_EQ(rc.qp(), qp0);
}

TEST(RateController, SkippedFramesReclaimBudget) {
  RateController rc;
  // Run hot for a while.
  for (int i = 0; i < 6; ++i) {
    rc.frame_encoded(static_cast<std::int64_t>(
        rc.target_bits_per_frame() * 1.6));
  }
  const int hot_qp = rc.qp();
  EXPECT_GT(hot_qp, RateControlConfig{}.initial_qp);
  // Skips drain the virtual buffer and QP falls back.
  for (int i = 0; i < 12; ++i) rc.frame_skipped();
  EXPECT_LT(rc.qp(), hot_qp);
}

TEST(RateController, QpStaysInValidRange) {
  RateController rc;
  for (int i = 0; i < 200; ++i) {
    rc.frame_encoded(static_cast<std::int64_t>(
        rc.target_bits_per_frame() * 10));
    EXPECT_GE(rc.qp(), media::kMinQp);
    EXPECT_LE(rc.qp(), media::kMaxQp);
  }
  for (int i = 0; i < 200; ++i) {
    rc.frame_encoded(0);
    EXPECT_GE(rc.qp(), media::kMinQp);
    EXPECT_LE(rc.qp(), media::kMaxQp);
  }
}

TEST(RateController, StepIsBounded) {
  RateController rc;
  int prev = rc.qp();
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    rc.frame_encoded(rng.uniform_i64(
        0, static_cast<std::int64_t>(rc.target_bits_per_frame() * 5)));
    EXPECT_LE(std::abs(rc.qp() - prev), 2);
    prev = rc.qp();
  }
}

TEST(RateController, ConvergesOnSyntheticBitCurve) {
  // A toy encoder whose bits fall with QP: bits = 120000 / qp.  The
  // closed loop must settle near the QP whose bits match the target.
  RateControlConfig cfg;
  cfg.bitrate_bps = 1.1e6;
  cfg.frame_rate = 25.0;  // target 44000 -> qp* ~ 2.7
  RateController rc(cfg);
  double total_bits = 0;
  int frames = 0;
  for (int i = 0; i < 400; ++i) {
    const auto bits = static_cast<std::int64_t>(120000.0 / rc.qp());
    rc.frame_encoded(bits);
    if (i >= 100) {  // ignore the transient
      total_bits += static_cast<double>(bits);
      ++frames;
    }
  }
  const double mean_bits = total_bits / frames;
  EXPECT_NEAR(mean_bits, 44000.0, 44000.0 * 0.25);
}

TEST(RateControllerDeath, RejectsBadConfig) {
  RateControlConfig cfg;
  cfg.bitrate_bps = 0;
  EXPECT_DEATH({ RateController rc(cfg); }, "bitrate");
}

TEST(RateControllerDeath, RejectsNonFiniteOrNonPositiveRates) {
  // +inf would make the per-frame budget 0 (or infinite) and quietly
  // pin QP at an end stop; NaN compares false against everything.
  for (const double v : {std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN(), 0.0,
                         -25.0}) {
    RateControlConfig frame_rate;
    frame_rate.frame_rate = v;
    EXPECT_DEATH({ RateController rc(frame_rate); }, "frame rate") << v;
    RateControlConfig bitrate;
    bitrate.bitrate_bps = v;
    EXPECT_DEATH({ RateController rc(bitrate); }, "bitrate") << v;
  }
}

}  // namespace
}  // namespace qosctrl::enc
