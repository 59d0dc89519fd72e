// Scalar ≡ SSE2 ≡ AVX2, pinned bit-for-bit.  Every SIMD backend the
// machine supports is compared against the scalar kernels over
// randomized inputs with deliberately awkward geometry: odd strides,
// unaligned base pointers, and (through the motion-search harness)
// frame borders via the padded reference.  Partial early-exit returns
// are compared too — all backends share the 4-row checkpoint, so even
// pruned SAD calls must return identical sums.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "media/frame.h"
#include "media/motion.h"
#include "media/padded_frame.h"
#include "media/simd/kernels.h"
#include "media/simd/kernels_impl.h"
#include "util/rng.h"

namespace qosctrl::media::simd {
namespace {

std::vector<Backend> simd_backends() {
  std::vector<Backend> out;
  for (const Backend b :
       {Backend::kSse2, Backend::kAvx2, Backend::kNeon}) {
    if (backend_supported(b)) out.push_back(b);
  }
  return out;
}

/// A pixel buffer with an arbitrary (odd, non-multiple-of-16) stride
/// and room for unaligned anchors.
struct StridedBuffer {
  int stride;
  std::vector<std::uint8_t> data;

  StridedBuffer(util::Rng& rng, int stride_in, int rows)
      : stride(stride_in),
        data(static_cast<std::size_t>(stride_in) * rows) {
    for (auto& v : data) {
      v = static_cast<std::uint8_t>(rng.uniform_i64(0, 255));
    }
  }
  const std::uint8_t* at(int x, int y) const {
    return data.data() + static_cast<std::size_t>(y) * stride + x;
  }
};

TEST(SimdKernelEquivalence, SadMatchesScalarExactlyOnOddStrides) {
  util::Rng rng(301);
  const StridedBuffer ref(rng, /*stride=*/73, /*rows=*/40);
  std::array<std::uint8_t, 256> cur;
  for (const Backend b : simd_backends()) {
    const KernelTable& t = kernels_for(b);
    for (int trial = 0; trial < 200; ++trial) {
      for (auto& v : cur) {
        v = static_cast<std::uint8_t>(rng.uniform_i64(0, 255));
      }
      const int x = static_cast<int>(rng.uniform_i64(0, 73 - 17));
      const int y = static_cast<int>(rng.uniform_i64(0, 40 - 16));
      const std::int64_t exact = scalar_sad_16x16(
          cur.data(), ref.at(x, y), ref.stride, INT64_C(1) << 60);
      EXPECT_EQ(t.sad_16x16(cur.data(), ref.at(x, y), ref.stride,
                            INT64_C(1) << 60),
                exact)
          << t.name << " trial " << trial;
      // Stride 0 repeats one row (the intra DC and vertical modes).
      EXPECT_EQ(t.sad_16x16(cur.data(), ref.at(x, y), 0, INT64_C(1) << 60),
                scalar_sad_16x16(cur.data(), ref.at(x, y), 0,
                                 INT64_C(1) << 60))
          << t.name << " stride 0, trial " << trial;
      // Pruned calls return the same 4-row partial sums.
      for (const std::int64_t best :
           {INT64_C(1), exact / 4, exact / 2, exact, exact + 1}) {
        EXPECT_EQ(t.sad_16x16(cur.data(), ref.at(x, y), ref.stride, best),
                  scalar_sad_16x16(cur.data(), ref.at(x, y), ref.stride,
                                   best))
            << t.name << " best=" << best;
      }
    }
  }
}

TEST(SimdKernelEquivalence, BatchedSadMatchesFourScalarCalls) {
  util::Rng rng(302);
  const StridedBuffer ref(rng, /*stride=*/131, /*rows=*/48);
  std::array<std::uint8_t, 256> cur;
  for (const Backend b : simd_backends()) {
    const KernelTable& t = kernels_for(b);
    for (int trial = 0; trial < 100; ++trial) {
      for (auto& v : cur) {
        v = static_cast<std::uint8_t>(rng.uniform_i64(0, 255));
      }
      const std::uint8_t* refs[4];
      std::int64_t expected[4];
      for (int k = 0; k < 4; ++k) {
        const int x = static_cast<int>(rng.uniform_i64(0, 131 - 17));
        const int y = static_cast<int>(rng.uniform_i64(0, 48 - 16));
        refs[k] = ref.at(x, y);
        expected[k] = scalar_sad_16x16(cur.data(), refs[k], ref.stride,
                                       INT64_C(1) << 60);
      }
      std::int64_t got[4];
      t.sad_16x16_x4(cur.data(), refs, ref.stride, INT64_C(1) << 60, got);
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(got[k], expected[k]) << t.name << " candidate " << k;
      }
      // With a pruning bound, partial returns must still be identical
      // to the scalar batch (same all-pruned 4-row checkpoint).
      const std::int64_t bound =
          *std::min_element(expected, expected + 4) / 2 + 1;
      std::int64_t want_pruned[4];
      std::int64_t got_pruned[4];
      scalar_sad_16x16_x4(cur.data(), refs, ref.stride, bound, want_pruned);
      t.sad_16x16_x4(cur.data(), refs, ref.stride, bound, got_pruned);
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(got_pruned[k], want_pruned[k])
            << t.name << " pruned candidate " << k;
      }
    }
  }
}

TEST(SimdKernelEquivalence, HalfpelMatchesScalarOnOddStrides) {
  util::Rng rng(303);
  // 17x17 reads: keep anchors clear of the last row/column.
  const StridedBuffer src(rng, /*stride=*/97, /*rows=*/40);
  std::array<std::uint8_t, 256> want;
  std::array<std::uint8_t, 256> got;
  for (const Backend b : simd_backends()) {
    const KernelTable& t = kernels_for(b);
    for (int trial = 0; trial < 100; ++trial) {
      const int x = static_cast<int>(rng.uniform_i64(0, 97 - 18));
      const int y = static_cast<int>(rng.uniform_i64(0, 40 - 17));
      for (int fy = 0; fy <= 1; ++fy) {
        for (int fx = 0; fx <= 1; ++fx) {
          if (fx == 0 && fy == 0) continue;
          scalar_halfpel_16x16(src.at(x, y), src.stride, fx, fy,
                               want.data());
          got.fill(0);
          t.halfpel_16x16(src.at(x, y), src.stride, fx, fy, got.data());
          EXPECT_EQ(got, want)
              << t.name << " (fx,fy)=(" << fx << "," << fy << ")";
        }
      }
    }
  }
}

TEST(SimdKernelEquivalence, ForwardDctBitExactOverResidualDomain) {
  util::Rng rng(304);
  std::array<std::int16_t, 64> in;
  std::array<std::int32_t, 64> want;
  std::array<std::int32_t, 64> got;
  for (const Backend b : simd_backends()) {
    const KernelTable& t = kernels_for(b);
    for (int trial = 0; trial < 500; ++trial) {
      // The documented exactness domain is |in| <= 1023; the encoder
      // produces at most 9-bit residuals.  Exercise the full domain.
      for (auto& v : in) {
        v = static_cast<std::int16_t>(rng.uniform_i64(-1023, 1023));
      }
      scalar_fdct8(in.data(), want.data());
      t.fdct8(in.data(), got.data());
      ASSERT_EQ(got, want) << t.name << " trial " << trial;
    }
    // Extremes of the domain.
    in.fill(1023);
    scalar_fdct8(in.data(), want.data());
    t.fdct8(in.data(), got.data());
    ASSERT_EQ(got, want) << t.name << " all-max";
    in.fill(-1023);
    scalar_fdct8(in.data(), want.data());
    t.fdct8(in.data(), got.data());
    ASSERT_EQ(got, want) << t.name << " all-min";
  }
}

TEST(SimdKernelEquivalence, InverseDctBitExactOverCoefficientDomain) {
  util::Rng rng(305);
  std::array<std::int32_t, 64> in;
  std::array<std::int16_t, 64> want;
  std::array<std::int16_t, 64> got;
  for (const Backend b : simd_backends()) {
    const KernelTable& t = kernels_for(b);
    for (int trial = 0; trial < 500; ++trial) {
      // Documented domain |coef| <= 65536 — far beyond the ~2^13 the
      // dequantizer produces.
      for (auto& v : in) {
        v = static_cast<std::int32_t>(rng.uniform_i64(-65536, 65536));
      }
      scalar_idct8(in.data(), want.data());
      t.idct8(in.data(), got.data());
      ASSERT_EQ(got, want) << t.name << " trial " << trial;
    }
    in.fill(65536);
    scalar_idct8(in.data(), want.data());
    t.idct8(in.data(), got.data());
    ASSERT_EQ(got, want) << t.name << " all-max";
  }
}

/// qp's exact reciprocal as media/quant.cpp derives it: shift = 31 +
/// ceil(log2 qp), mul = ceil(2^shift / qp).
std::pair<std::uint32_t, int> reciprocal(int qp) {
  int log2_ceil = 0;
  while ((1 << log2_ceil) < qp) ++log2_ceil;
  const int shift = 31 + log2_ceil;
  const auto q = static_cast<std::uint64_t>(qp);
  return {static_cast<std::uint32_t>(((std::uint64_t{1} << shift) + q - 1) / q),
          shift};
}

TEST(SimdKernelEquivalence, QuantizeMatchesScalarOverInt32) {
  util::Rng rng(309);
  std::array<std::int32_t, 64> want;
  std::array<std::int32_t, 64> got;
  for (const Backend b : simd_backends()) {
    const KernelTable& t = kernels_for(b);
    for (int qp = 1; qp <= 31; ++qp) {
      const auto [mul, shift] = reciprocal(qp);
      for (int trial = 0; trial < 40; ++trial) {
        // Half the trials in the encoder's coefficient range (many
        // zero levels), half over all of int32 with its extremes.
        for (auto& v : want) {
          v = trial % 2 == 0
                  ? static_cast<std::int32_t>(rng.uniform_i64(-2041, 2041))
                  : static_cast<std::int32_t>(rng.next_u64());
        }
        if (trial % 2 == 1) {
          want[0] = INT32_MIN;
          want[1] = INT32_MAX;
          want[2] = 0;
          want[3] = -qp;
          want[4] = qp - 1;
        }
        got = want;
        const int want_nz = scalar_quantize8x8(want.data(), qp, mul, shift);
        const int got_nz = t.quantize8x8(got.data(), qp, mul, shift);
        ASSERT_EQ(got, want) << t.name << " qp " << qp << " trial " << trial;
        ASSERT_EQ(got_nz, want_nz) << t.name << " qp " << qp;
      }
    }
  }
}

TEST(SimdKernelEquivalence, ReconstructMatchesScalarOnOddStrides) {
  util::Rng rng(310);
  std::array<std::int32_t, 64> levels;
  const StridedBuffer pred(rng, /*stride=*/37, /*rows=*/12);
  for (const Backend b : simd_backends()) {
    const KernelTable& t = kernels_for(b);
    for (int trial = 0; trial < 600; ++trial) {
      const int qp = 1 + trial % 31;
      const std::int32_t step = 2 * qp;
      // The documented domain |level * step| <= 65536; a third of the
      // trials use the farm's sparse small levels, a third the full
      // domain (saturating both clamps), a third a lone DC level.
      const std::int64_t max_level = 65536 / step;
      for (auto& v : levels) {
        switch (trial % 3) {
          case 0:
            v = rng.uniform_i64(0, 2) == 0
                    ? static_cast<std::int32_t>(rng.uniform_i64(-12, 12))
                    : 0;
            break;
          case 1:
            v = static_cast<std::int32_t>(
                rng.uniform_i64(-max_level, max_level));
            break;
          default:
            v = 0;
        }
      }
      if (trial % 3 == 2) {
        levels[0] = static_cast<std::int32_t>(
            rng.uniform_i64(-max_level, max_level));
      }
      const int px = static_cast<int>(rng.uniform_i64(0, 37 - 8));
      const int py = static_cast<int>(rng.uniform_i64(0, 12 - 8));
      std::vector<std::uint8_t> want(23 * 9, 7);
      std::vector<std::uint8_t> got(23 * 9, 7);
      scalar_reconstruct8x8(levels.data(), step, pred.at(px, py), 37,
                            want.data() + 1, 23);
      t.reconstruct8x8(levels.data(), step, pred.at(px, py), 37,
                       got.data() + 1, 23);
      ASSERT_EQ(got, want) << t.name << " trial " << trial;
    }
  }
}

TEST(SimdKernelEquivalence, RoundTripDctAcrossBackends) {
  // forward(scalar) -> inverse(simd) and vice versa must equal the
  // all-scalar pipeline: coefficients are interchangeable because the
  // forward outputs are bit-identical.
  util::Rng rng(306);
  std::array<std::int16_t, 64> residual;
  for (const Backend b : simd_backends()) {
    const KernelTable& t = kernels_for(b);
    for (int trial = 0; trial < 100; ++trial) {
      for (auto& v : residual) {
        v = static_cast<std::int16_t>(rng.uniform_i64(-255, 255));
      }
      std::array<std::int32_t, 64> coef_scalar;
      std::array<std::int32_t, 64> coef_simd;
      scalar_fdct8(residual.data(), coef_scalar.data());
      t.fdct8(residual.data(), coef_simd.data());
      ASSERT_EQ(coef_simd, coef_scalar);
      std::array<std::int16_t, 64> back_scalar;
      std::array<std::int16_t, 64> back_simd;
      scalar_idct8(coef_scalar.data(), back_scalar.data());
      t.idct8(coef_scalar.data(), back_simd.data());
      ASSERT_EQ(back_simd, back_scalar);
    }
  }
}

TEST(SimdKernelEquivalence, SumSqDiffMatchesScalarExactly) {
  util::Rng rng(308);
  // Span lengths cover one macroblock row up to a whole QCIF plane,
  // including lengths that exercise the AVX2 16-pixel tail (n % 32 ==
  // 16) and biased content (small diffs) as well as full-range noise.
  const std::size_t lengths[] = {16, 48, 256, 1008, 25344};
  std::vector<std::uint8_t> a(25344), b(25344);
  for (const Backend bk : simd_backends()) {
    const KernelTable& t = kernels_for(bk);
    for (int trial = 0; trial < 20; ++trial) {
      const bool small_diffs = trial % 2 == 0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<std::uint8_t>(rng.uniform_i64(0, 255));
        b[i] = small_diffs
                   ? static_cast<std::uint8_t>(
                         std::clamp<std::int64_t>(
                             a[i] + rng.uniform_i64(-4, 4), 0, 255))
                   : static_cast<std::uint8_t>(rng.uniform_i64(0, 255));
      }
      for (const std::size_t n : lengths) {
        EXPECT_EQ(t.sum_sq_diff(a.data(), b.data(), n),
                  scalar_sum_sq_diff(a.data(), b.data(), n))
            << t.name << " n=" << n;
      }
    }
    // Worst case: maximal per-pixel difference over the whole span.
    std::fill(a.begin(), a.end(), 255);
    std::fill(b.begin(), b.end(), 0);
    EXPECT_EQ(t.sum_sq_diff(a.data(), b.data(), a.size()),
              static_cast<std::int64_t>(a.size()) * 255 * 255)
        << t.name;
  }
}

TEST(SimdKernelEquivalence, SsimStatsMatchScalarExactlyOnOddStrides) {
  util::Rng rng(309);
  const StridedBuffer bufa(rng, /*stride=*/59, /*rows=*/32);
  const StridedBuffer bufb(rng, /*stride=*/83, /*rows=*/32);
  for (const Backend bk : simd_backends()) {
    const KernelTable& t = kernels_for(bk);
    for (int trial = 0; trial < 200; ++trial) {
      const int xa = static_cast<int>(rng.uniform_i64(0, 59 - 8));
      const int ya = static_cast<int>(rng.uniform_i64(0, 32 - 8));
      const int xb = static_cast<int>(rng.uniform_i64(0, 83 - 8));
      const int yb = static_cast<int>(rng.uniform_i64(0, 32 - 8));
      std::int64_t want[5], got[5];
      scalar_ssim_stats_8x8(bufa.at(xa, ya), bufa.stride, bufb.at(xb, yb),
                            bufb.stride, want);
      t.ssim_stats_8x8(bufa.at(xa, ya), bufa.stride, bufb.at(xb, yb),
                       bufb.stride, got);
      for (int k = 0; k < 5; ++k) {
        EXPECT_EQ(got[k], want[k]) << t.name << " moment " << k;
      }
    }
    // All-255 blocks pin the lane-overflow margins.
    std::vector<std::uint8_t> solid(64, 255);
    std::int64_t want[5], got[5];
    scalar_ssim_stats_8x8(solid.data(), 8, solid.data(), 8, want);
    t.ssim_stats_8x8(solid.data(), 8, solid.data(), 8, got);
    for (int k = 0; k < 5; ++k) {
      EXPECT_EQ(got[k], want[k]) << t.name << " solid moment " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-search equivalence: estimate_motion through each dispatched
// backend must produce identical results, frame borders included (the
// padded reference plus the clamped Frame overload both run under
// every backend).

Frame random_frame(util::Rng& rng, int w, int h) {
  Frame f(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      f.set(x, y, static_cast<Sample>(rng.uniform_i64(0, 255)));
    }
  }
  return f;
}

TEST(SimdKernelEquivalence, MotionSearchIdenticalUnderEveryBackend) {
  util::Rng rng(307);
  const Frame ref = random_frame(rng, 64, 48);
  Frame cur = ref;
  for (int y = 8; y < 40; ++y) {
    for (int x = 8; x < 56; ++x) {
      cur.set(x, y, ref.at_clamped(x - 3, y + 2));
    }
  }
  const PaddedFrame padded(ref);

  const ScopedBackendRestore restore;
  std::vector<MotionResult> scalar_results;
  for (const bool collect : {true, false}) {
    // First pass: scalar baseline.  Second pass: each SIMD backend.
    const auto run_all = [&](std::vector<MotionResult>* sink,
                             const std::vector<MotionResult>* expect) {
      std::size_t i = 0;
      for (const bool half_pel : {false, true}) {
        for (const std::int64_t early : {INT64_C(0), INT64_C(512)}) {
          for (int mby = 0; mby < 3; ++mby) {
            for (int mbx = 0; mbx < 4; ++mbx) {
              MotionConfig cfg;
              cfg.radius = 8;
              cfg.early_exit_sad = early;
              cfg.half_pel = half_pel;
              const MotionResult pr =
                  estimate_motion(cur, padded, mbx * 16, mby * 16, cfg);
              const MotionResult fr =
                  estimate_motion(cur, ref, mbx * 16, mby * 16, cfg);
              for (const MotionResult* m : {&pr, &fr}) {
                if (sink != nullptr) {
                  sink->push_back(*m);
                } else {
                  const MotionResult& want = (*expect)[i];
                  EXPECT_EQ(m->dx, want.dx);
                  EXPECT_EQ(m->dy, want.dy);
                  EXPECT_EQ(m->dx2, want.dx2);
                  EXPECT_EQ(m->dy2, want.dy2);
                  EXPECT_EQ(m->sad, want.sad);
                  EXPECT_EQ(m->points_examined, want.points_examined);
                }
                ++i;
              }
            }
          }
        }
      }
    };
    if (collect) {
      set_backend_for_testing(Backend::kScalar);
      run_all(&scalar_results, nullptr);
    } else {
      for (const Backend b : simd_backends()) {
        set_backend_for_testing(b);
        run_all(nullptr, &scalar_results);
      }
    }
  }
}

}  // namespace
}  // namespace qosctrl::media::simd
