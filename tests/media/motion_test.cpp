#include "media/motion.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "util/rng.h"

namespace qosctrl::media {
namespace {

std::int64_t naive_sad(const std::array<Sample, 256>& a,
                       const std::array<Sample, 256>& b) {
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < 256; ++i) acc += std::abs(a[i] - b[i]);
  return acc;
}

/// A textured frame whose content is a pure function of (x, y) so exact
/// translations can be synthesized.
Frame textured(int w, int h, int shift_x = 0, int shift_y = 0) {
  Frame f(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int wx = x + shift_x;
      const int wy = y + shift_y;
      f.set(x, y, static_cast<Sample>((wx * 7 + wy * 13 + wx * wy) & 0xFF));
    }
  }
  return f;
}

TEST(Sad16x16, ZeroForIdentical) {
  std::array<Sample, 256> a{}, b{};
  a.fill(9);
  b.fill(9);
  EXPECT_EQ(sad_16x16(a.data(), b.data(), 16, INT64_C(1) << 60), 0);
}

TEST(Sad16x16, SumsAbsoluteDifferences) {
  std::array<Sample, 256> a{}, b{};
  a.fill(10);
  b.fill(13);
  EXPECT_EQ(sad_16x16(a.data(), b.data(), 16, INT64_C(1) << 60), 256 * 3);
  b[0] = 0;  // |10 - 0| = 10 replaces |10 - 13| = 3
  EXPECT_EQ(sad_16x16(a.data(), b.data(), 16, INT64_C(1) << 60),
            255 * 3 + 10);
}

TEST(Sad16x16, ZeroStrideRepeatsOneRow) {
  util::Rng rng(12);
  std::array<Sample, 256> cur;
  for (auto& v : cur) v = static_cast<Sample>(rng.uniform_i64(0, 255));
  std::array<Sample, 256> row_block;
  for (std::size_t i = 0; i < 256; ++i) {
    row_block[i] = static_cast<Sample>(i % 16 * 11);
  }
  EXPECT_EQ(sad_16x16(cur.data(), row_block.data(), 0, INT64_C(1) << 60),
            naive_sad(cur, row_block));
}

TEST(SearchRadius, MonotoneAndAnchored) {
  EXPECT_EQ(search_radius_for_level(0), 0);
  EXPECT_EQ(search_radius_for_level(7), 8);
  for (std::size_t qi = 1; qi < 8; ++qi) {
    EXPECT_GE(search_radius_for_level(qi), search_radius_for_level(qi - 1));
  }
}

TEST(EstimateMotion, FindsExactTranslation) {
  const Frame ref = textured(64, 64);
  const Frame cur = textured(64, 64, 3, -2);  // content moved by (-3, +2)?
  // cur(x,y) = ref(x+3, y-2), so block at (x0,y0) of cur matches ref at
  // (x0+3, y0-2): motion vector (dx, dy) = (3, -2).
  MotionConfig cfg{8, 0};
  const MotionResult r = estimate_motion(cur, ref, 24, 24, cfg);
  EXPECT_EQ(r.dx, 3);
  EXPECT_EQ(r.dy, -2);
  EXPECT_EQ(r.sad, 0);
}

TEST(EstimateMotion, ZeroRadiusOnlyChecksZeroVector) {
  const Frame ref = textured(64, 64);
  const Frame cur = textured(64, 64, 5, 5);
  MotionConfig cfg{0, 0};
  const MotionResult r = estimate_motion(cur, ref, 24, 24, cfg);
  EXPECT_EQ(r.dx, 0);
  EXPECT_EQ(r.dy, 0);
  EXPECT_EQ(r.points_examined, 1);
  EXPECT_EQ(r.points_total, 1);
  EXPECT_GT(r.sad, 0);
}

TEST(EstimateMotion, EarlyExitStopsAtGoodMatch) {
  const Frame ref = textured(64, 64);
  const Frame cur = textured(64, 64);  // identical: zero vector perfect
  MotionConfig lazy{8, 512};
  const MotionResult r = estimate_motion(cur, ref, 24, 24, lazy);
  EXPECT_EQ(r.points_examined, 1);
  EXPECT_EQ(r.sad, 0);
  MotionConfig eager{8, 0};  // disabled early exit scans everything
  const MotionResult r2 = estimate_motion(cur, ref, 24, 24, eager);
  EXPECT_EQ(r2.points_examined, r2.points_total);
}

TEST(EstimateMotion, WindowTooSmallMissesTheMatch) {
  const Frame ref = textured(64, 64);
  const Frame cur = textured(64, 64, 6, 0);
  MotionConfig small{3, 0};
  const MotionResult r = estimate_motion(cur, ref, 24, 24, small);
  EXPECT_GT(r.sad, 0) << "radius 3 cannot reach the (6,0) match";
  MotionConfig big{8, 0};
  const MotionResult r2 = estimate_motion(cur, ref, 24, 24, big);
  EXPECT_EQ(r2.sad, 0);
  EXPECT_EQ(r2.dx, 6);
}

TEST(EstimateMotion, PointCounts) {
  const Frame ref = textured(64, 64);
  const Frame cur = textured(64, 64, 1, 1);
  for (int radius : {0, 1, 2, 4}) {
    MotionConfig cfg{radius, 0};
    const MotionResult r = estimate_motion(cur, ref, 24, 24, cfg);
    EXPECT_EQ(r.points_total, (2 * radius + 1) * (2 * radius + 1));
    EXPECT_EQ(r.points_examined, r.points_total);
  }
}

TEST(EstimateMotion, SadIsBestOverWindow) {
  // The reported SAD must equal the true minimum over all candidates.
  util::Rng rng(11);
  Frame ref(64, 64), cur(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      ref.set(x, y, static_cast<Sample>(rng.uniform_i64(0, 255)));
      cur.set(x, y, static_cast<Sample>(rng.uniform_i64(0, 255)));
    }
  }
  MotionConfig cfg{2, 0};
  const MotionResult r = estimate_motion(cur, ref, 24, 24, cfg);
  const auto src = read_macroblock(cur, 24, 24);
  std::int64_t best = INT64_MAX;
  for (int dy = -2; dy <= 2; ++dy) {
    for (int dx = -2; dx <= 2; ++dx) {
      const auto pred = motion_compensate(ref, 24, 24, dx, dy);
      best = std::min(best, naive_sad(src, pred));
    }
  }
  EXPECT_EQ(r.sad, best);
}

TEST(EstimateMotion, CallersBlockMatchesTheFrameSearch) {
  // The overload the encoder calls, with the source block Grab holds,
  // returns what the padded Frame overload returns at every macroblock.
  const Frame ref = textured(64, 48);
  const Frame cur = textured(64, 48, 3, -2);
  const PaddedFrame padded(ref);
  MotionConfig cfg;
  cfg.radius = 4;
  cfg.half_pel = true;
  for (int y0 = 0; y0 < 48; y0 += 16) {
    for (int x0 = 0; x0 < 64; x0 += 16) {
      const auto src = read_macroblock(cur, x0, y0);
      const MotionResult a = estimate_motion(src.data(), padded, x0, y0, cfg);
      const MotionResult b = estimate_motion(cur, padded, x0, y0, cfg);
      EXPECT_EQ(a.dx2, b.dx2);
      EXPECT_EQ(a.dy2, b.dy2);
      EXPECT_EQ(a.sad, b.sad);
      EXPECT_EQ(a.points_examined, b.points_examined);
    }
  }
}

TEST(MotionCompensate, CopiesShiftedBlock) {
  const Frame ref = textured(64, 64);
  const auto pred = motion_compensate(ref, 16, 16, 2, -1);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      EXPECT_EQ(pred[static_cast<std::size_t>(y * 16 + x)],
                ref.at(16 + x + 2, 16 + y - 1));
    }
  }
}

TEST(MotionCompensate, ClampsAtBorders) {
  const Frame ref = textured(32, 32);
  const auto pred = motion_compensate(ref, 0, 0, -10, -10);
  EXPECT_EQ(pred[0], ref.at(0, 0));
}

}  // namespace
}  // namespace qosctrl::media
