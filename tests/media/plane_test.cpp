#include "media/plane.h"

#include <gtest/gtest.h>

#include "encoder/macroblock.h"
#include "media/motion.h"
#include "media/synthetic_video.h"
#include "media/yuv.h"
#include "quality/distortion.h"
#include "support/oracles.h"
#include "util/rng.h"

namespace qosctrl::media {
namespace {

TEST(Plane, ConstructionAndAccess) {
  Plane p(16, 8, 7);
  EXPECT_EQ(p.width(), 16);
  EXPECT_EQ(p.height(), 8);
  EXPECT_EQ(p.at(0, 0), 7);
  p.set(3, 5, 200);
  EXPECT_EQ(p.at(3, 5), 200);
  EXPECT_EQ(at_clamped(p, -2, 100), p.at(0, 7));
}

TEST(PlaneDeath, RejectsNonBlockDimensions) {
  EXPECT_DEATH({ Plane p(12, 8); }, "multiples");
  EXPECT_DEATH({ Plane p(16, 9); }, "multiples");
}

TEST(ChromaMotionCompensate, EvenLumaVectorsCopyShifted) {
  util::Rng rng(1);
  Plane ref(32, 24);
  for (int y = 0; y < 24; ++y) {
    for (int x = 0; x < 32; ++x) {
      ref.set(x, y, static_cast<Sample>(rng.uniform_i64(0, 255)));
    }
  }
  // Luma vector (8, -4) in half-pel units = full-pel luma (4, -2) =
  // chroma (2, -1) exactly.
  const auto pred = chroma_motion_compensate(ref, 8, 8, 8, -4);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      EXPECT_EQ(pred[static_cast<std::size_t>(y * 8 + x)],
                at_clamped(ref, 8 + x + 2, 8 + y - 1));
    }
  }
}

TEST(ChromaMotionCompensate, HalfLumaPelLandsOnHalfChromaPel) {
  // Luma (2, 0) half-pel units = 1 full luma pel = 0.5 chroma pel:
  // chroma prediction must be the horizontal average.
  Plane ref(16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      ref.set(x, y, static_cast<Sample>(x * 10));
    }
  }
  const auto pred = chroma_motion_compensate(ref, 4, 4, 2, 0);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 7; ++x) {
      const int a = ref.at(4 + x, 4 + y);
      const int b = ref.at(4 + x + 1, 4 + y);
      EXPECT_EQ(pred[static_cast<std::size_t>(y * 8 + x)], (a + b + 1) / 2);
    }
  }
}

TEST(ChromaMotionCompensate, MatchesTheBilinearCasesInsideAndAtBorders) {
  // Every luma vector in the stream's range (+-kMaxVectorHalfPel half
  // pels) at every block of both chroma planes of a small reference
  // picture (so interior blocks and all four corners, all four fraction
  // cases) against the per-case bilinear formula with clamped reads.
  util::Rng rng(3);
  YuvFrame frame(64, 48);
  for (Plane* ref : {&frame.cb, &frame.cr}) {
    for (int y = 0; y < ref->height(); ++y) {
      for (int x = 0; x < ref->width(); ++x) {
        ref->set(x, y, static_cast<Sample>(rng.uniform_i64(0, 255)));
      }
    }
  }
  frame.fill_borders();
  constexpr int kEnd = enc::kMaxVectorHalfPel;
  for (const Plane* ref : {&frame.cb, &frame.cr}) {
    for (int y0 = 0; y0 < ref->height(); y0 += 8) {
      for (int x0 = 0; x0 < ref->width(); x0 += 8) {
        for (int dy2 = -kEnd; dy2 <= kEnd; ++dy2) {
          for (int dx2 = -kEnd; dx2 <= kEnd; ++dx2) {
            const int cdx2 = dx2 / 2 + dx2 % 2;
            const int cdy2 = dy2 / 2 + dy2 % 2;
            const int ix = cdx2 >= 0 ? cdx2 / 2 : (cdx2 - 1) / 2;
            const int iy = cdy2 >= 0 ? cdy2 / 2 : (cdy2 - 1) / 2;
            const int fx = cdx2 - 2 * ix;
            const int fy = cdy2 - 2 * iy;
            const auto pred =
                chroma_motion_compensate(*ref, x0, y0, dx2, dy2);
            for (int y = 0; y < 8; ++y) {
              for (int x = 0; x < 8; ++x) {
                const int px = x0 + ix + x;
                const int py = y0 + iy + y;
                const int a = at_clamped(*ref, px, py);
                const int b = at_clamped(*ref, px + 1, py);
                const int c = at_clamped(*ref, px, py + 1);
                const int d = at_clamped(*ref, px + 1, py + 1);
                const int want = fx == 0 && fy == 0 ? a
                                 : fy == 0          ? (a + b + 1) / 2
                                 : fx == 0          ? (a + c + 1) / 2
                                                    : (a + b + c + d + 2) / 4;
                ASSERT_EQ(pred[static_cast<std::size_t>(y * 8 + x)], want)
                    << "block (" << x0 << "," << y0 << ") vector (" << dx2
                    << "," << dy2 << ")";
              }
            }
          }
        }
      }
    }
  }
}

TEST(ChromaMotionCompensateDeath, RejectsAWindowPastTheMargin) {
  // Without a margin only in-plane windows may be read; with one, the
  // window may reach kChromaPad samples past the edge and no further.
  const Plane bare(16, 16);
  (void)chroma_motion_compensate(bare, 0, 0, 0, 0);
  EXPECT_DEATH(chroma_motion_compensate(bare, 0, 0, -2, 0),
               "exceeds reference padding");
  const YuvFrame frame(32, 32);
  (void)chroma_motion_compensate(frame.cb, 0, 0, -enc::kMaxVectorHalfPel,
                                 -enc::kMaxVectorHalfPel);
  EXPECT_DEATH(chroma_motion_compensate(frame.cb, 0, 0,
                                        -enc::kMaxVectorHalfPel - 4, 0),
               "exceeds reference padding");
}

TEST(ChromaDcPrediction, AveragesNeighbors) {
  Plane recon(16, 16, 0);
  for (int x = 0; x < 8; ++x) recon.set(8 + x, 7, 100);  // row above
  for (int y = 0; y < 8; ++y) recon.set(7, 8 + y, 60);   // column left
  const auto pred = chroma_dc_prediction(recon, 8, 8);
  EXPECT_EQ(pred[0], 80);  // (8*100 + 8*60) / 16
  for (auto v : pred) EXPECT_EQ(v, 80);
}

TEST(ChromaDcPrediction, NoNeighborsIsMidGray) {
  Plane recon(16, 16, 99);
  const auto pred = chroma_dc_prediction(recon, 0, 0);
  EXPECT_EQ(pred[0], 128);
}

TEST(PlaneSse, CountsSquaredError) {
  Plane a(8, 8, 10), b(8, 8, 13);
  EXPECT_EQ(quality::frame_sse_ref(a, b), 64 * 9);
  EXPECT_EQ(quality::measure(a, b).psnr, quality::psnr_from_sse(64 * 9, 64));
}

TEST(YuvFrame, GeometryIs420) {
  YuvFrame f(64, 48);
  EXPECT_EQ(f.y.width(), 64);
  EXPECT_EQ(f.cb.width(), 32);
  EXPECT_EQ(f.cr.height(), 24);
}

TEST(YuvFrame, PsnrScoresEveryPlane) {
  YuvFrame a(32, 32), b(32, 32);
  EXPECT_DOUBLE_EQ(quality::measure(a.y, b.y).psnr, 99.0);
  EXPECT_DOUBLE_EQ(quality::measure(a.cb, b.cb).psnr, 99.0);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) b.cb.set(x, y, 138);
  }
  // Half of the 16x16 plane is off by 10: MSE 50.
  EXPECT_DOUBLE_EQ(quality::measure(a.cb, b.cb).psnr,
                   quality::psnr_from_sse(128 * 100, 256));
  EXPECT_LT(quality::measure(a.cb, b.cb).psnr, 99.0);
  EXPECT_DOUBLE_EQ(quality::measure(a.cr, b.cr).psnr, 99.0);
  EXPECT_DOUBLE_EQ(quality::measure(a.y, b.y).psnr, 99.0);
}

TEST(SyntheticVideo, ChromaPansWithLuma) {
  // Within a scene, a chroma block must be motion-compensable from the
  // previous frame's chroma with the luma pan vector.
  media::VideoConfig vc;  // defaults: scene 0 pans slowly
  const SyntheticVideo v(vc);
  const YuvFrame a = v.frame_yuv(10);
  const YuvFrame b = v.frame_yuv(11);
  // Find the dominant pan by luma full search at a central MB.
  MotionConfig cfg{8, 0};
  const MotionResult mv = estimate_motion(read_macroblock(b.y, 80, 64).data(),
                                         with_margin(a.y), 80, 64, cfg);
  // Compensate the co-located chroma block with that vector and check
  // it beats the zero-vector difference.
  const auto moved =
      chroma_motion_compensate(a.cb, 40, 32, mv.dx2, mv.dy2);
  const auto frozen = chroma_motion_compensate(a.cb, 40, 32, 0, 0);
  std::int64_t err_moved = 0, err_frozen = 0;
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      const int actual = b.cb.at(40 + x, 32 + y);
      err_moved += std::abs(
          actual - static_cast<int>(moved[static_cast<std::size_t>(y * 8 + x)]));
      err_frozen += std::abs(
          actual -
          static_cast<int>(frozen[static_cast<std::size_t>(y * 8 + x)]));
    }
  }
  EXPECT_LE(err_moved, err_frozen);
}

TEST(SyntheticVideo, ChromaIsDeterministic) {
  media::VideoConfig vc;
  vc.width = 64;
  vc.height = 48;
  vc.num_frames = 10;
  vc.num_scenes = 2;
  const SyntheticVideo a(vc), b(vc);
  const YuvFrame fa = a.frame_yuv(5);
  const YuvFrame fb = b.frame_yuv(5);
  EXPECT_EQ(fa.cb.data(), fb.cb.data());
  EXPECT_EQ(fa.cr.data(), fb.cr.data());
}

TEST(SyntheticVideo, SceneCutChangesColorCast) {
  const SyntheticVideo v{media::VideoConfig{}};
  const auto starts = v.scene_starts();
  const YuvFrame before = v.frame_yuv(starts[1] - 1);
  const YuvFrame after = v.frame_yuv(starts[1]);
  const std::int64_t across = quality::frame_sse_ref(before.cb, after.cb);
  const YuvFrame next = v.frame_yuv(starts[1] + 1);
  const std::int64_t within = quality::frame_sse_ref(after.cb, next.cb);
  EXPECT_GT(across, within);
}

}  // namespace
}  // namespace qosctrl::media
