#include "media/reconstruct.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "media/dct.h"
#include "media/quant.h"
#include "media/simd/kernels.h"
#include "util/rng.h"

namespace qosctrl::media {
namespace {

/// The inverse path one stage at a time: dequantize_coeff per level,
/// inverse_dct8, then add and clamp per pixel.
void staged_reconstruct(const Coeffs8& levels, int qp, const Sample* pred,
                        int pred_stride, Sample* dst, int dst_stride) {
  Coeffs8 coeffs;
  for (std::size_t i = 0; i < 64; ++i) {
    coeffs[i] = dequantize_coeff(levels[i], qp);
  }
  Block8 residual;
  inverse_dct8(coeffs, residual);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      dst[y * dst_stride + x] = static_cast<Sample>(
          std::clamp(pred[y * pred_stride + x] + residual[y * 8 + x], 0,
                     255));
    }
  }
}

TEST(ReconstructBlock8, MatchesTheStagedPathAtEveryQpUnderEveryBackend) {
  const simd::ScopedBackendRestore restore;
  for (const simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kSse2, simd::Backend::kAvx2,
        simd::Backend::kNeon}) {
    if (!simd::backend_supported(b)) continue;
    simd::set_backend_for_testing(b);
    util::Rng rng(41);
    for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
      for (int trial = 0; trial < 20; ++trial) {
        Coeffs8 levels;
        for (auto& v : levels) {
          v = trial % 2 == 0
                  ? static_cast<std::int32_t>(rng.uniform_i64(-kMaxLevel,
                                                              kMaxLevel))
                  : static_cast<std::int32_t>(rng.uniform_i64(-3, 3));
        }
        std::vector<Sample> pred(16 * 8);
        for (auto& v : pred) v = static_cast<Sample>(rng.uniform_i64(0, 255));
        std::vector<Sample> want(24 * 8, 1);
        std::vector<Sample> got(24 * 8, 1);
        staged_reconstruct(levels, qp, pred.data() + 3, 16, want.data() + 5,
                           24);
        reconstruct_block8(levels, qp, pred.data() + 3, 16, got.data() + 5,
                           24);
        ASSERT_EQ(got, want) << simd::backend_name(b) << " qp " << qp
                             << " trial " << trial;
      }
    }
  }
}

TEST(ReconstructBlock8Death, RejectsOutOfRangeQp) {
  const Coeffs8 levels{};
  std::array<Sample, 64> pred{};
  std::array<Sample, 64> dst{};
  EXPECT_DEATH(reconstruct_block8(levels, 0, pred.data(), 8, dst.data(), 8),
               "QP");
  EXPECT_DEATH(reconstruct_block8(levels, 32, pred.data(), 8, dst.data(), 8),
               "QP");
}

}  // namespace
}  // namespace qosctrl::media
