#include "media/frame.h"

#include <gtest/gtest.h>

#include "support/oracles.h"

namespace qosctrl::media {
namespace {

TEST(Frame, ConstructionAndFill) {
  Frame f(32, 16, 7);
  EXPECT_EQ(f.width(), 32);
  EXPECT_EQ(f.height(), 16);
  EXPECT_EQ(f.at(0, 0), 7);
  EXPECT_EQ(f.at(31, 15), 7);
  EXPECT_EQ(f.mb_cols(), 2);
  EXPECT_EQ(f.mb_rows(), 1);
  EXPECT_EQ(f.num_macroblocks(), 2);
}

TEST(Frame, SetGetRoundTrip) {
  Frame f(16, 16);
  f.set(3, 5, 200);
  EXPECT_EQ(f.at(3, 5), 200);
  EXPECT_EQ(f.at(5, 3), 0);
}

TEST(Frame, ClampedReads) {
  Frame f(16, 16);
  f.set(0, 0, 11);
  f.set(15, 15, 22);
  EXPECT_EQ(at_clamped(f, -5, -5), 11);
  EXPECT_EQ(at_clamped(f, 100, 100), 22);
  EXPECT_EQ(at_clamped(f, 5, -1), f.at(5, 0));
}

TEST(Frame, MbOriginRasterOrder) {
  Frame f(48, 32);  // 3 x 2 macroblocks
  EXPECT_EQ(f.mb_origin(0), std::make_pair(0, 0));
  EXPECT_EQ(f.mb_origin(2), std::make_pair(32, 0));
  EXPECT_EQ(f.mb_origin(3), std::make_pair(0, 16));
  EXPECT_EQ(f.mb_origin(5), std::make_pair(32, 16));
}

TEST(FrameDeath, RejectsNonMacroblockDimensions) {
  EXPECT_DEATH(Frame(17, 16), "multiples");
  EXPECT_DEATH(Frame(16, 20), "multiples");
  EXPECT_DEATH(Frame(24, 16), "multiples");  // a valid plane, not a frame
}

TEST(Frame, IsAPlane) {
  // One pixel type: a frame's accessors are the plane's, so a frame
  // binds wherever a plane is taken.
  Frame f(32, 16, 9);
  f.set(31, 15, 4);
  const Plane& p = f;
  EXPECT_EQ(p.width(), 32);
  EXPECT_EQ(p.at(31, 15), 4);
  EXPECT_EQ(p.row(15), f.row(15));
  EXPECT_EQ(p.data().size(), 32u * 16u);
}

TEST(Macroblock, ReadCopiesTheBlockInRasterOrder) {
  Frame f(32, 32);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      f.set(x, y, static_cast<Sample>(y * 32 + x));
    }
  }
  const std::array<Sample, 256> block = read_macroblock(f, 16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      EXPECT_EQ(block[static_cast<std::size_t>(y * 16 + x)],
                f.at(16 + x, 16 + y));
    }
  }
}

}  // namespace
}  // namespace qosctrl::media
