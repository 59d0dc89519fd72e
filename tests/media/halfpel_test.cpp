#include <gtest/gtest.h>

#include "media/motion.h"
#include "support/oracles.h"
#include "util/rng.h"

namespace qosctrl::media {
namespace {

Frame gradient(int w, int h) {
  Frame f(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      f.set(x, y, static_cast<Sample>((x * 4) & 0xFF));
    }
  }
  return f;
}

/// Half-pel compensation of `ref` through its padded copy.
std::array<Sample, 256> compensate(const Frame& ref, int x0, int y0, int dx2,
                                   int dy2) {
  return motion_compensate_halfpel(with_margin(ref), x0, y0, dx2, dy2);
}

/// The search of the macroblock at (x0, y0) of `cur` against `ref`.
MotionResult search(const Frame& cur, const Frame& ref, int x0, int y0,
                    const MotionConfig& cfg) {
  return estimate_motion(read_macroblock(cur, x0, y0).data(),
                         with_margin(ref), x0, y0, cfg);
}

TEST(HalfPel, EvenVectorsCopyTheShiftedBlock) {
  util::Rng rng(1);
  Frame ref(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      ref.set(x, y, static_cast<Sample>(rng.uniform_i64(0, 255)));
    }
  }
  for (int dx = -3; dx <= 3; ++dx) {
    for (int dy = -3; dy <= 3; ++dy) {
      const auto pred = compensate(ref, 24, 24, 2 * dx, 2 * dy);
      for (int y = 0; y < 16; ++y) {
        for (int x = 0; x < 16; ++x) {
          ASSERT_EQ(pred[static_cast<std::size_t>(y * 16 + x)],
                    ref.at(24 + x + dx, 24 + y + dy))
              << "dx=" << dx << " dy=" << dy;
        }
      }
    }
  }
}

TEST(HalfPel, HorizontalInterpolationAveragesNeighbors) {
  const Frame ref = gradient(64, 64);
  const auto pred = compensate(ref, 16, 16, 1, 0);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 15; ++x) {
      const int a = ref.at(16 + x, 16 + y);
      const int b = ref.at(16 + x + 1, 16 + y);
      EXPECT_EQ(pred[static_cast<std::size_t>(y * 16 + x)], (a + b + 1) / 2);
    }
  }
}

TEST(HalfPel, DiagonalInterpolationAveragesFour) {
  util::Rng rng(2);
  Frame ref(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      ref.set(x, y, static_cast<Sample>(rng.uniform_i64(0, 255)));
    }
  }
  const auto pred = compensate(ref, 16, 16, 1, 1);
  for (int y = 0; y < 15; ++y) {
    for (int x = 0; x < 15; ++x) {
      const int expected = (ref.at(16 + x, 16 + y) +
                            ref.at(16 + x + 1, 16 + y) +
                            ref.at(16 + x, 16 + y + 1) +
                            ref.at(16 + x + 1, 16 + y + 1) + 2) / 4;
      EXPECT_EQ(pred[static_cast<std::size_t>(y * 16 + x)], expected);
    }
  }
}

TEST(HalfPel, NegativeVectorsFloorCorrectly) {
  const Frame ref = gradient(64, 64);
  // dx2 = -1 means integer part -1, fraction +1: the average of
  // columns x-1 and x.
  const auto pred = compensate(ref, 24, 24, -1, 0);
  const int a = ref.at(24 - 1, 24);
  const int b = ref.at(24, 24);
  EXPECT_EQ(pred[0], (a + b + 1) / 2);
}

TEST(HalfPel, RefinementFindsSubPixelShift) {
  // cur is ref shifted by exactly half a pixel horizontally (pairwise
  // average); the refined vector should carry the fractional part and
  // beat the best full-pel SAD.
  util::Rng rng(3);
  Frame ref(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      ref.set(x, y, static_cast<Sample>(rng.uniform_i64(0, 255)));
    }
  }
  Frame cur(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 63; ++x) {
      cur.set(x, y, static_cast<Sample>(
                        (ref.at(x, y) + ref.at(x + 1, y) + 1) / 2));
    }
  }
  MotionConfig full{4, 0, false};
  MotionConfig half{4, 0, true};
  const MotionResult rf = search(cur, ref, 24, 24, full);
  const MotionResult rh = search(cur, ref, 24, 24, half);
  EXPECT_LT(rh.sad, rf.sad / 4) << "half-pel must align almost exactly";
  EXPECT_EQ(rh.dx2 % 2 != 0 || rh.dy2 % 2 != 0, true)
      << "the winning vector should be fractional";
  EXPECT_EQ(rh.dx2, 1);
  EXPECT_EQ(rh.dy2, 0);
}

TEST(HalfPel, RefinementNeverWorsensSad) {
  util::Rng rng(4);
  Frame ref(64, 64), cur(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      ref.set(x, y, static_cast<Sample>(rng.uniform_i64(0, 255)));
      cur.set(x, y, static_cast<Sample>(rng.uniform_i64(0, 255)));
    }
  }
  for (int trial = 0; trial < 10; ++trial) {
    const int x0 = 16 * static_cast<int>(rng.uniform_i64(1, 2));
    const int y0 = 16 * static_cast<int>(rng.uniform_i64(1, 2));
    MotionConfig full{3, 0, false};
    MotionConfig half{3, 0, true};
    const MotionResult rf = search(cur, ref, x0, y0, full);
    const MotionResult rh = search(cur, ref, x0, y0, half);
    EXPECT_LE(rh.sad, rf.sad);
    EXPECT_EQ(rh.points_examined, rf.points_examined + 8);
  }
}

TEST(HalfPel, DisabledKeepsEvenVectors) {
  const Frame ref = gradient(64, 64);
  const Frame cur = gradient(64, 64);
  MotionConfig cfg{3, 0, false};
  const MotionResult r = search(cur, ref, 24, 24, cfg);
  EXPECT_EQ(r.dx2, 2 * r.dx);
  EXPECT_EQ(r.dy2, 2 * r.dy);
}

}  // namespace
}  // namespace qosctrl::media
