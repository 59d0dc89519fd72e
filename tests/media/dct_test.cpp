#include "media/dct.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace qosctrl::media {
namespace {

Coeffs8 fdct(const Block8& block) {
  Coeffs8 out;
  forward_dct8(block, out);
  return out;
}

Block8 idct(const Coeffs8& coeffs) {
  Block8 out;
  inverse_dct8(coeffs, out);
  return out;
}

TEST(Dct, ZeroBlockMapsToZero) {
  Block8 zero{};
  const Coeffs8 c = fdct(zero);
  for (auto v : c) EXPECT_EQ(v, 0);
  const Block8 back = idct(c);
  for (auto v : back) EXPECT_EQ(v, 0);
}

TEST(Dct, ConstantBlockIsPureDc) {
  Block8 b;
  b.fill(64);
  const Coeffs8 c = fdct(b);
  // DC = 8 * value for an orthonormal 8x8 DCT.
  EXPECT_EQ(c[0], 512);
  for (std::size_t i = 1; i < 64; ++i) {
    EXPECT_EQ(c[i], 0) << "AC leak at " << i;
  }
}

TEST(Dct, ParsevalEnergyPreservation) {
  util::Rng rng(3);
  Block8 b;
  for (auto& v : b) {
    v = static_cast<Residual>(rng.uniform_i64(-255, 255));
  }
  const Coeffs8 c = fdct(b);
  double es = 0, ec = 0;
  for (auto v : b) es += static_cast<double>(v) * v;
  for (auto v : c) ec += static_cast<double>(v) * v;
  // Orthonormal transform preserves energy up to rounding.
  EXPECT_NEAR(ec / (es + 1.0), 1.0, 0.02);
}

TEST(Dct, HorizontalCosineHitsSingleBin) {
  // x[n] = cos((2n+1) * 2 * pi / 16) concentrates in coefficient u=2.
  Block8 b;
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      b[static_cast<std::size_t>(y * 8 + x)] = static_cast<Residual>(
          std::lround(100.0 * std::cos((2 * x + 1) * 2.0 * M_PI / 16.0)));
    }
  }
  const Coeffs8 c = fdct(b);
  int max_idx = 0;
  for (int i = 1; i < 64; ++i) {
    if (std::abs(c[static_cast<std::size_t>(i)]) >
        std::abs(c[static_cast<std::size_t>(max_idx)])) {
      max_idx = i;
    }
  }
  EXPECT_EQ(max_idx, 2) << "energy should land in (v=0, u=2)";
}

// Round-trip property over random residual blocks: IDCT(DCT(x)) == x
// within +/-1 per sample (integer rounding only).
class DctRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DctRoundTrip, WithinOneLsb) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    Block8 b;
    for (auto& v : b) {
      v = static_cast<Residual>(rng.uniform_i64(-255, 255));
    }
    const Block8 back = idct(fdct(b));
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_NEAR(back[i], b[i], 1) << "sample " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DctRoundTrip,
                         ::testing::Values(1, 7, 42, 1000));

TEST(Dct, LinearityUnderRounding) {
  util::Rng rng(5);
  Block8 a, b, sum;
  for (std::size_t i = 0; i < 64; ++i) {
    a[i] = static_cast<Residual>(rng.uniform_i64(-100, 100));
    b[i] = static_cast<Residual>(rng.uniform_i64(-100, 100));
    sum[i] = static_cast<Residual>(a[i] + b[i]);
  }
  const Coeffs8 ca = fdct(a);
  const Coeffs8 cb = fdct(b);
  const Coeffs8 cs = fdct(sum);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(cs[i], ca[i] + cb[i], 2) << "coefficient " << i;
  }
}

}  // namespace
}  // namespace qosctrl::media
