// Planes with a border margin: the reference pictures motion search
// and compensation read in place (plane.h, yuv.h).
#include <gtest/gtest.h>

#include <array>

#include "media/plane.h"
#include "media/yuv.h"
#include "support/oracles.h"
#include "util/rng.h"

namespace qosctrl::media {
namespace {

void fill_random(util::Rng& rng, Plane& p) {
  for (int y = 0; y < p.height(); ++y) {
    for (int x = 0; x < p.width(); ++x) {
      p.set(x, y, static_cast<Sample>(rng.uniform_i64(0, 255)));
    }
  }
}

/// Every sample of the margin reads as the clamped interior read.
void expect_margin_is_clamped(const Plane& p) {
  const int pad = p.pad();
  for (int y = -pad; y < p.height() + pad; ++y) {
    for (int x = -pad; x < p.width() + pad; ++x) {
      ASSERT_EQ(p.row(y)[x], at_clamped(p, x, y))
          << "mismatch at (" << x << ", " << y << ") of a " << p.width()
          << "x" << p.height() << " plane, pad " << pad;
    }
  }
}

TEST(PaddedFrame, BorderFillReplicatesTheClampedReadOverTheWholeMargin) {
  // Odd multiples of the tile, so no side is a power of two, and pads
  // wider and narrower than a block.
  util::Rng rng(11);
  for (const auto& [w, h, pad] : {std::array<int, 3>{48, 32, 16},
                                  std::array<int, 3>{80, 112, 16},
                                  std::array<int, 3>{16, 16, 3}}) {
    Frame f(w, h, 0, pad);
    fill_random(rng, f);
    f.fill_border();
    expect_margin_is_clamped(f);
  }
  for (const auto& [w, h, pad] : {std::array<int, 3>{24, 40, 8},
                                  std::array<int, 3>{56, 8, 8},
                                  std::array<int, 3>{8, 8, 5}}) {
    Plane p(w, h, 0, pad);
    fill_random(rng, p);
    p.fill_border();
    expect_margin_is_clamped(p);
  }
}

TEST(PaddedFrame, ReferencePicturesCarryTheReferenceMargins) {
  // A 9x7-macroblock picture: odd in both directions.
  util::Rng rng(12);
  YuvFrame f(144, 112);
  EXPECT_EQ(f.y.pad(), kLumaPad);
  EXPECT_EQ(f.cb.pad(), kChromaPad);
  EXPECT_EQ(f.cr.pad(), kChromaPad);
  fill_random(rng, f.y);
  fill_random(rng, f.cb);
  fill_random(rng, f.cr);
  f.fill_borders();
  expect_margin_is_clamped(f.y);
  expect_margin_is_clamped(f.cb);
  expect_margin_is_clamped(f.cr);
}

TEST(PaddedFrame, RowPointersAreContiguousSpans) {
  util::Rng rng(13);
  Frame f(32, 32, 0, 8);
  fill_random(rng, f);
  EXPECT_EQ(f.stride(), 32 + 2 * 8);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      EXPECT_EQ(f.row(y)[x], f.at(x, y));
    }
    // Successive rows are exactly one stride apart.
    if (y > 0) {
      EXPECT_EQ(f.row(y), f.row(y - 1) + f.stride());
    }
  }
}

TEST(PaddedFrame, RefillingTracksNewContent) {
  util::Rng rng(14);
  Frame f(32, 16, 0, 16);
  fill_random(rng, f);
  f.fill_border();
  EXPECT_EQ(f.row(-5)[-5], f.at(0, 0));

  // Mutate and refill: the margin follows the edge.
  f.set(0, 0, static_cast<Sample>(f.at(0, 0) ^ 0xFF));
  f.fill_border();
  EXPECT_EQ(f.row(-5)[-5], f.at(0, 0));
  expect_margin_is_clamped(f);
}

TEST(PaddedFrame, WithoutAMarginThePixelsAreTheBuffer) {
  util::Rng rng(15);
  Plane p(16, 8, 0);
  fill_random(rng, p);
  p.fill_border();  // a no-op
  EXPECT_EQ(p.stride(), 16);
  ASSERT_EQ(p.data().size(), 16u * 8u);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) {
      EXPECT_EQ(p.data()[static_cast<std::size_t>(y * 16 + x)], p.at(x, y));
    }
  }
}

}  // namespace
}  // namespace qosctrl::media
