#include "media/frame.h"

#include <gtest/gtest.h>

#include <cmath>

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
  EXPECT_EQ(f.at_clamped(-5, -5), 11);
  EXPECT_EQ(f.at_clamped(100, 100), 22);
  EXPECT_EQ(f.at_clamped(5, -1), f.at(5, 0));
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

TEST(Psnr, IdenticalFramesHitTheCap) {
  Frame a(16, 16, 100), b(16, 16, 100);
  EXPECT_DOUBLE_EQ(psnr(a, b), 99.0);
  EXPECT_DOUBLE_EQ(psnr(a, b, 60.0), 60.0);
}

TEST(Psnr, KnownValue) {
  Frame a(16, 16, 100), b(16, 16, 110);  // MSE = 100
  EXPECT_NEAR(psnr(a, b), 10.0 * std::log10(255.0 * 255.0 / 100.0), 1e-9);
}

TEST(Psnr, MonotoneInError) {
  Frame a(16, 16, 100);
  Frame small_err(16, 16, 102), big_err(16, 16, 140);
  EXPECT_GT(psnr(a, small_err), psnr(a, big_err));
}

TEST(FrameSse, CountsAllPixels) {
  Frame a(16, 16, 0), b(16, 16, 1);
  EXPECT_DOUBLE_EQ(frame_sse(a, b), 256.0);
}

}  // namespace
}  // namespace qosctrl::media
