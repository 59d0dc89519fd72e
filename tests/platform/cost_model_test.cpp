#include "platform/cost_model.h"

#include <gtest/gtest.h>

#include "encoder/body.h"

namespace qosctrl::platform {
namespace {

CostTable simple_table() {
  return CostTable({
      {CostSpec{100, 200}, CostSpec{300, 900}},  // action 0
      {CostSpec{50, 50}, CostSpec{50, 50}},      // action 1 (deterministic)
  });
}

TEST(CostTable, Lookup) {
  const CostTable t = simple_table();
  EXPECT_EQ(t.num_actions(), 2u);
  EXPECT_EQ(t.num_levels(), 2u);
  EXPECT_EQ(t.at(0, 1).average, 300);
  EXPECT_EQ(t.at(1, 0).worst_case, 50);
}

TEST(CostModel, NeverExceedsWorstCase) {
  CostModel m(simple_table(), CostModelConfig{}, util::Rng(1));
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LE(m.sample(0, 0, 1.0), 200);
    EXPECT_LE(m.sample(0, 1, 1.0), 900);
    // Even with an absurd work scale the clamp must hold.
    EXPECT_LE(m.sample(0, 1, 100.0), 900);
  }
}

TEST(CostModel, NeverNegative) {
  CostModel m(simple_table(), CostModelConfig{}, util::Rng(2));
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(m.sample(0, 0, 0.0), 0);
    EXPECT_GE(m.sample(0, 1, 0.01), 0);
  }
}

TEST(CostModel, DeterministicActionReturnsScaledAverage) {
  CostModel m(simple_table(), CostModelConfig{}, util::Rng(3));
  EXPECT_EQ(m.sample(1, 0, 1.0), 50);
  EXPECT_EQ(m.sample(1, 0, 0.5), 25);
  EXPECT_EQ(m.sample(1, 0, 10.0), 50);  // clamped at wc
}

TEST(CostModel, MeanTracksAverageAtUnitWork) {
  CostModel m(simple_table(), CostModelConfig{}, util::Rng(4));
  double acc = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    acc += static_cast<double>(m.sample(0, 0, 1.0));
  }
  const double mean = acc / n;
  EXPECT_NEAR(mean, 100.0, 5.0);  // unit-median lognormal, mild clamping
}

TEST(CostModel, WorkScaleShiftsTheMean) {
  CostModel m(simple_table(), CostModelConfig{}, util::Rng(5));
  double lo = 0, hi = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    lo += static_cast<double>(m.sample(0, 1, 0.5));
    hi += static_cast<double>(m.sample(0, 1, 2.0));
  }
  EXPECT_LT(lo / n, 200.0);
  EXPECT_GT(hi / n, 400.0);
}

TEST(CostModel, FloorFractionClampsBelow) {
  // No work at all still costs kFloorFraction of the average: 25 of 100
  // at q0, 75 of 300 at q1, whatever the jitter.
  CostModel m(simple_table(), CostModelConfig{}, util::Rng(6));
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(m.sample(0, 0, 0.0), 25);
    EXPECT_EQ(m.sample(0, 1, 0.0), 75);
  }
}

TEST(CostModel, ZeroSigmaIsDeterministic) {
  CostModelConfig cfg;
  cfg.jitter_sigma = 0.0;
  CostModel m(simple_table(), cfg, util::Rng(7));
  const rt::Cycles first = m.sample(0, 0, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(m.sample(0, 0, 1.0), first);
  EXPECT_EQ(first, 100);
}

TEST(Figure5, TableShapeMatchesPaper) {
  const CostTable t = figure5_cost_table();
  ASSERT_EQ(t.num_actions(), 9u);
  ASSERT_EQ(t.num_levels(), 8u);
  // Spot-check the published numbers.
  using enc::BodyAction;
  const auto me = enc::id(BodyAction::kMotionEstimate);
  EXPECT_EQ(t.at(me, 0).average, 215);
  EXPECT_EQ(t.at(me, 0).worst_case, 1000);
  EXPECT_EQ(t.at(me, 3).average, 95000);
  EXPECT_EQ(t.at(me, 3).worst_case, 350000);
  EXPECT_EQ(t.at(me, 7).average, 200000);
  EXPECT_EQ(t.at(me, 7).worst_case, 1500000);
  const auto grab = enc::id(BodyAction::kGrabMacroBlock);
  EXPECT_EQ(t.at(grab, 0).average, 12000);
  EXPECT_EQ(t.at(grab, 0).worst_case, 24000);
  const auto dct = enc::id(BodyAction::kDct);
  EXPECT_EQ(t.at(dct, 5).average, 16000);
  EXPECT_EQ(t.at(dct, 5).worst_case, 16000);
  const auto comp = enc::id(BodyAction::kCompress);
  EXPECT_EQ(t.at(comp, 2).average, 5000);
  EXPECT_EQ(t.at(comp, 2).worst_case, 50000);
}

TEST(Figure5, MotionEstimateMonotoneInQuality) {
  const CostTable t = figure5_cost_table();
  const auto me = enc::id(enc::BodyAction::kMotionEstimate);
  for (std::size_t qi = 1; qi < 8; ++qi) {
    EXPECT_GE(t.at(me, qi).average, t.at(me, qi - 1).average);
    EXPECT_GE(t.at(me, qi).worst_case, t.at(me, qi - 1).worst_case);
  }
}

TEST(Figure5, OnlyMotionEstimateVariesWithQuality) {
  const CostTable t = figure5_cost_table();
  for (rt::ActionId a = 0; a < 9; ++a) {
    if (a == enc::id(enc::BodyAction::kMotionEstimate)) continue;
    for (std::size_t qi = 1; qi < 8; ++qi) {
      EXPECT_EQ(t.at(a, qi).average, t.at(a, 0).average);
      EXPECT_EQ(t.at(a, qi).worst_case, t.at(a, 0).worst_case);
    }
  }
}

TEST(Figure5, QualityLevelsAreZeroToSeven) {
  const auto q = figure5_quality_levels();
  ASSERT_EQ(q.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(q[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace qosctrl::platform
