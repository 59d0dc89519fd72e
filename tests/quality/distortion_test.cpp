// Golden distortion values for a fixed synthetic sequence, pinned
// bit-for-bit across every SIMD backend the machine supports —
// scalar / SSE2 / AVX2 (and NEON on AArch64).  The SSE is an integer,
// so it is pinned exactly; PSNR adds one log10 (pinned to 1e-9, the
// only libm dependence); the SSIM mean is a ratio of integers, so its
// double is pinned exactly too.
#include "quality/distortion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "media/simd/kernels.h"
#include "media/synthetic_video.h"
#include "pipeline/simulation.h"
#include "util/rng.h"

namespace qosctrl::quality {
namespace {

using media::simd::Backend;

std::vector<Backend> supported_backends() {
  std::vector<Backend> out = {Backend::kScalar};
  for (const Backend b :
       {Backend::kSse2, Backend::kAvx2, Backend::kNeon}) {
    if (media::simd::backend_supported(b)) out.push_back(b);
  }
  return out;
}

/// The fixed sequence the goldens were recorded on.
media::SyntheticVideo golden_video() {
  media::VideoConfig vc;
  vc.width = 64;
  vc.height = 48;
  vc.num_frames = 8;
  vc.num_scenes = 2;
  vc.seed = 1234;
  return media::SyntheticVideo(vc);
}

struct Golden {
  int frame;
  std::int64_t sse;
  double psnr;
  double ssim;
};

// frame 0 vs frame f: f=1 is intra-scene motion, f=4 and f=7 cross
// the scene cut (near-uncorrelated content, SSIM close to zero).
constexpr Golden kGoldens[] = {
    {1, 360191, 27.439687152129679, 0.83257871866226196},
    {4, 28428034, 8.4675474603939413, 0.05494109789530436},
    {7, 27771077, 8.569088496219889, 0.046762923399607338},
};

TEST(Distortion, GoldenValuesPinnedAcrossEveryBackend) {
  const media::SyntheticVideo video = golden_video();
  const media::Frame reference = video.frame(0);
  const media::simd::ScopedBackendRestore restore;
  for (const Backend b : supported_backends()) {
    media::simd::set_backend_for_testing(b);
    for (const Golden& g : kGoldens) {
      const media::Frame other = video.frame(g.frame);
      EXPECT_EQ(quality::frame_sse(reference, other), g.sse)
          << media::simd::backend_name(b) << " frame " << g.frame;
      EXPECT_NEAR(quality::psnr(reference, other), g.psnr, 1e-9)
          << media::simd::backend_name(b) << " frame " << g.frame;
      EXPECT_DOUBLE_EQ(ssim(reference, other), g.ssim)
          << media::simd::backend_name(b) << " frame " << g.frame;
    }
  }
}

TEST(Distortion, BackendsAgreeBitForBitOnRandomFrames) {
  util::Rng rng(41);
  media::Frame a(64, 48), b(64, 48);
  for (int trial = 0; trial < 8; ++trial) {
    for (int y = 0; y < 48; ++y) {
      for (int x = 0; x < 64; ++x) {
        a.set(x, y, static_cast<media::Sample>(rng.uniform_i64(0, 255)));
        b.set(x, y, static_cast<media::Sample>(rng.uniform_i64(0, 255)));
      }
    }
    const media::simd::ScopedBackendRestore restore;
    media::simd::set_backend_for_testing(Backend::kScalar);
    const std::int64_t want_sse = quality::frame_sse(a, b);
    const double want_psnr = quality::psnr(a, b);
    const double want_ssim = ssim(a, b);
    for (const Backend bk : supported_backends()) {
      media::simd::set_backend_for_testing(bk);
      EXPECT_EQ(quality::frame_sse(a, b), want_sse) << media::simd::backend_name(bk);
      // Same process, same libm: the doubles must be identical bits.
      EXPECT_EQ(quality::psnr(a, b), want_psnr) << media::simd::backend_name(bk);
      EXPECT_EQ(ssim(a, b), want_ssim) << media::simd::backend_name(bk);
    }
  }
}

TEST(Distortion, SsimBlockFixedPointGoldens) {
  // Identical flat blocks: SSIM exactly 1 (2^20 in fixed point).
  const std::int64_t flat_equal[5] = {64 * 100, 64 * 100, 64 * 100 * 100,
                                      64 * 100 * 100, 64 * 100 * 100};
  EXPECT_EQ(ssim_block_fp(flat_equal), INT64_C(1) << kSsimFpBits);
  // Two flat blocks 10 gray levels apart: only the luminance term
  // bites (both variances are zero).
  const std::int64_t flat_off[5] = {64 * 100, 64 * 110, 64 * 100 * 100,
                                    64 * 110 * 110, 64 * 100 * 110};
  EXPECT_EQ(ssim_block_fp(flat_off), 1043833);
}

TEST(Distortion, IdenticalFramesScorePerfect) {
  const media::Frame f = golden_video().frame(3);
  EXPECT_EQ(quality::frame_sse(f, f), 0);
  EXPECT_EQ(quality::psnr(f, f), 99.0);  // the cap
  EXPECT_DOUBLE_EQ(ssim(f, f), 1.0);
  const FrameDistortion d = measure(f, f);
  EXPECT_EQ(d.psnr, 99.0);
  EXPECT_DOUBLE_EQ(d.ssim, 1.0);
}

TEST(Distortion, PsnrMatchesTheLegacyMediaPsnrExactly) {
  // media::psnr's double accumulation of 8-bit squared differences is
  // exact, so routing it through the integer kernel must not move a
  // single bit.
  const media::SyntheticVideo video = golden_video();
  for (int f = 1; f < 8; ++f) {
    const media::Frame a = video.frame(0);
    const media::Frame b = video.frame(f);
    EXPECT_EQ(quality::psnr(a, b), media::psnr(a, b)) << "frame " << f;
  }
}

TEST(Distortion, SsimDegradesMonotonicallyWithNoise) {
  const media::Frame clean = golden_video().frame(2);
  util::Rng rng(99);
  double previous = 1.0;
  for (const int amplitude : {2, 8, 32, 96}) {
    media::Frame noisy = clean;
    for (int y = 0; y < noisy.height(); ++y) {
      for (int x = 0; x < noisy.width(); ++x) {
        const int v = noisy.at(x, y) +
                      static_cast<int>(rng.uniform_i64(-amplitude,
                                                       amplitude));
        noisy.set(x, y, static_cast<media::Sample>(
                            std::clamp(v, 0, 255)));
      }
    }
    const double s = ssim(clean, noisy);
    EXPECT_LT(s, previous) << "amplitude " << amplitude;
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
    previous = s;
  }
}

TEST(Distortion, PipelineTelemetryCarriesSsim) {
  pipe::PipelineConfig cfg;
  cfg.video.width = 64;
  cfg.video.height = 48;
  cfg.video.num_frames = 6;
  cfg.video.num_scenes = 2;
  const pipe::PipelineResult r = pipe::run_pipeline(cfg);
  ASSERT_EQ(r.frames.size(), 6u);
  for (const pipe::FrameRecord& fr : r.frames) {
    EXPECT_GT(fr.ssim, 0.0) << "frame " << fr.index;
    EXPECT_LE(fr.ssim, 1.0);
  }
  EXPECT_GT(r.mean_ssim, 0.5);
  // Distribution stats are ordered and consistent with the series.
  EXPECT_LE(r.psnr_stats.min, r.psnr_stats.p5);
  EXPECT_LE(r.psnr_stats.p5, r.psnr_stats.mean + 1e-12);
  EXPECT_LE(r.ssim_stats.min, r.ssim_stats.p5);
  EXPECT_DOUBLE_EQ(r.ssim_stats.mean, r.mean_ssim);
  EXPECT_DOUBLE_EQ(r.psnr_stats.mean, r.mean_psnr);
}

}  // namespace
}  // namespace qosctrl::quality
