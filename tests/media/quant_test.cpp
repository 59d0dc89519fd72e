#include "media/quant.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "media/dct.h"
#include "support/oracles.h"
#include "util/rng.h"

namespace qosctrl::media {
namespace {

TEST(Quant, ZeroMapsToZero) {
  for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
    EXPECT_EQ(quantize_coeff(0, qp), 0);
    EXPECT_EQ(dequantize_coeff(0, qp), 0);
  }
}

TEST(Quant, RoundsToNearestStep) {
  // step = 2 * qp = 8 at qp 4.
  EXPECT_EQ(quantize_coeff(3, 4), 0);
  EXPECT_EQ(quantize_coeff(4, 4), 1);   // mid-tread rounds up at half
  EXPECT_EQ(quantize_coeff(8, 4), 1);
  EXPECT_EQ(quantize_coeff(12, 4), 2);
}

TEST(Quant, SignSymmetry) {
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto c = static_cast<std::int32_t>(rng.uniform_i64(-2000, 2000));
    const int qp = static_cast<int>(rng.uniform_i64(kMinQp, kMaxQp));
    EXPECT_EQ(quantize_coeff(-c, qp), -quantize_coeff(c, qp));
  }
}

TEST(Quant, ReconstructionErrorBoundedByHalfStep) {
  util::Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const auto c = static_cast<std::int32_t>(rng.uniform_i64(-3000, 3000));
    const int qp = static_cast<int>(rng.uniform_i64(kMinQp, kMaxQp));
    const std::int32_t recon = dequantize_coeff(quantize_coeff(c, qp), qp);
    EXPECT_LE(std::abs(recon - c), qp) << "c=" << c << " qp=" << qp;
  }
}

TEST(Quant, CoarserQpNeverIncreasesLevelMagnitude) {
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto c = static_cast<std::int32_t>(rng.uniform_i64(-3000, 3000));
    for (int qp = kMinQp; qp < kMaxQp; ++qp) {
      EXPECT_GE(std::abs(quantize_coeff(c, qp)),
                std::abs(quantize_coeff(c, qp + 1)));
    }
  }
}

TEST(Quant, BlockHelpersMatchScalar) {
  util::Rng rng(4);
  Coeffs8 coeffs;
  for (auto& v : coeffs) {
    v = static_cast<std::int32_t>(rng.uniform_i64(-500, 500));
  }
  Coeffs8 levels = coeffs;
  quantize_block(levels, 6);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(levels[i], quantize_coeff(coeffs[i], 6));
  }
}

TEST(Quant, BlockEqualsTheDivisionFormulaForEveryReachableCoefficient) {
  // Every QP and every |c| <= 65536 (the inverse DCT's domain; the
  // forward DCT of 8-bit residuals stays within 2041), both signs.
  for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
    Coeffs8 coeffs;
    for (std::int32_t base = -65536; base <= 65536; base += 64) {
      for (std::size_t i = 0; i < 64; ++i) {
        coeffs[i] = base + static_cast<std::int32_t>(i);
      }
      Coeffs8 levels = coeffs;
      quantize_block(levels, qp);
      for (std::size_t i = 0; i < 64; ++i) {
        ASSERT_EQ(levels[i], quantize_coeff(coeffs[i], qp))
            << "qp " << qp << " c " << coeffs[i];
      }
    }
  }
}

TEST(Quant, BlockIsExactAcrossTheWholeInt32Range) {
  // The reciprocal is exact for every int32, including the extremes
  // where the division formula itself would overflow int32.
  const auto reference = [](std::int32_t c, int qp) {
    const std::int64_t mag = (std::abs(std::int64_t{c}) + qp) / (2 * qp);
    return static_cast<std::int32_t>(c < 0 ? -mag : mag);
  };
  util::Rng rng(14);
  for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
    Coeffs8 coeffs;
    for (int round = 0; round < 64; ++round) {
      for (std::size_t i = 0; i < 64; ++i) {
        coeffs[i] = static_cast<std::int32_t>(rng.next_u64());
      }
      coeffs[0] = INT32_MIN;
      coeffs[1] = INT32_MAX;
      coeffs[2] = INT32_MIN + 1;
      coeffs[3] = INT32_MAX - qp;
      // Multiples of the step, half-steps and their neighbours.
      const std::int64_t k = rng.uniform_i64(0, INT32_MAX / (2 * qp) - 1);
      for (std::size_t i = 4; i < 10; ++i) {
        coeffs[i] = static_cast<std::int32_t>(k * 2 * qp + qp - 5 +
                                              static_cast<std::int64_t>(i));
      }
      Coeffs8 levels = coeffs;
      quantize_block(levels, qp);
      for (std::size_t i = 0; i < 64; ++i) {
        ASSERT_EQ(levels[i], reference(coeffs[i], qp))
            << "qp " << qp << " c " << coeffs[i];
      }
    }
  }
}

TEST(Quant, EncoderLevelsStayWithinMaxLevel) {
  // The largest coefficients 8-bit residuals can reach: each DCT basis
  // function's sign pattern at full swing, both polarities, at QP 1.
  std::int32_t largest = 0;
  for (std::size_t k = 0; k < 64; ++k) {
    for (const int polarity : {1, -1}) {
      Block8 residual;
      for (std::size_t p = 0; p < 64; ++p) {
        Block8 impulse{};
        impulse[p] = 255;
        const std::int32_t basis = forward_dct8_ref(impulse)[k];
        residual[p] = static_cast<Residual>(polarity *
                                            (basis < 0 ? -255 : 255));
      }
      Coeffs8 levels;
      forward_dct8(residual, levels);
      quantize_block(levels, kMinQp);
      for (const std::int32_t level : levels) {
        largest = std::max(largest, std::abs(level));
      }
    }
  }
  EXPECT_LE(largest, kMaxLevel);
  EXPECT_GE(largest, 1000);  // the bound is not loose by orders
}

TEST(Quant, QuantizeBlockCountsNonzeroLevels) {
  Coeffs8 c{};
  EXPECT_EQ(quantize_block(c, 1), 0);
  c[0] = 5;    // level 3
  c[40] = 1;   // level 1
  c[63] = -2;  // level -1
  EXPECT_EQ(quantize_block(c, 1), 3);
  util::Rng rng(15);
  for (int trial = 0; trial < 200; ++trial) {
    const int qp = static_cast<int>(rng.uniform_i64(kMinQp, kMaxQp));
    Coeffs8 levels;
    for (auto& v : levels) {
      v = static_cast<std::int32_t>(rng.uniform_i64(-4 * qp, 4 * qp));
    }
    const int nonzero = quantize_block(levels, qp);
    EXPECT_EQ(nonzero, 64 - std::count(levels.begin(), levels.end(), 0));
  }
}

TEST(QuantDeath, RejectsOutOfRangeQp) {
  EXPECT_DEATH(quantize_coeff(10, 0), "QP");
  EXPECT_DEATH(quantize_coeff(10, 32), "QP");
  Coeffs8 block{};
  EXPECT_DEATH(quantize_block(block, 0), "QP");
  EXPECT_DEATH(quantize_block(block, 32), "QP");
}

}  // namespace
}  // namespace qosctrl::media
