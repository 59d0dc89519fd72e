#include "media/synthetic_video.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "media/motion.h"

namespace qosctrl::media {
namespace {

VideoConfig small_config() {
  VideoConfig c;
  c.width = 64;
  c.height = 48;
  c.num_frames = 90;
  c.num_scenes = 3;
  c.seed = 7;
  return c;
}

TEST(SyntheticVideo, DeterministicInConfig) {
  const SyntheticVideo a(small_config());
  const SyntheticVideo b(small_config());
  for (int f : {0, 17, 89}) {
    EXPECT_EQ(a.frame(f).data(), b.frame(f).data()) << "frame " << f;
  }
}

TEST(SyntheticVideo, SeedChangesContent) {
  VideoConfig c1 = small_config();
  VideoConfig c2 = small_config();
  c2.seed = 8;
  EXPECT_NE(SyntheticVideo(c1).frame(5).data(),
            SyntheticVideo(c2).frame(5).data());
}

TEST(SyntheticVideo, SceneStartsPartitionTheTimeline) {
  const SyntheticVideo v(small_config());
  const auto starts = v.scene_starts();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], 30);
  EXPECT_EQ(starts[2], 60);
}

TEST(SyntheticVideo, SceneOfAndCuts) {
  const SyntheticVideo v(small_config());
  EXPECT_EQ(v.scene_of(0), 0);
  EXPECT_EQ(v.scene_of(29), 0);
  EXPECT_EQ(v.scene_of(30), 1);
  EXPECT_EQ(v.scene_of(89), 2);
  EXPECT_TRUE(v.is_scene_cut(0));
  EXPECT_TRUE(v.is_scene_cut(30));
  EXPECT_TRUE(v.is_scene_cut(60));
  EXPECT_FALSE(v.is_scene_cut(31));
}

TEST(SyntheticVideo, UnevenSceneSplitSpreadsRemainder) {
  VideoConfig c = small_config();
  c.num_frames = 10;
  c.num_scenes = 3;  // sizes 4, 3, 3
  const SyntheticVideo v(c);
  const auto starts = v.scene_starts();
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], 4);
  EXPECT_EQ(starts[2], 7);
}

TEST(SyntheticVideo, CutChangesContentMoreThanContinuation) {
  const SyntheticVideo v(small_config());
  // Within-scene consecutive frames are closer than frames across a cut.
  const double within = frame_sse(v.frame(10), v.frame(11));
  const double across = frame_sse(v.frame(29), v.frame(30));
  EXPECT_GT(across, 2.0 * within);
}

TEST(SyntheticVideo, ConsecutiveFramesAreTrackableWithinAScene) {
  // The generator's central promise: inside a scene, a wide-window
  // full-pel search finds a good match for most macroblocks.
  const SyntheticVideo v(VideoConfig{});  // default 176x144, 9 scenes
  const Frame a = v.frame(40);
  const Frame b = v.frame(41);
  MotionConfig cfg{8, 0};
  int good = 0, total = 0;
  for (int mb = 0; mb < b.num_macroblocks(); mb += 3) {
    const auto [x0, y0] = b.mb_origin(mb);
    const MotionResult r = estimate_motion(b, a, x0, y0, cfg);
    ++total;
    if (r.sad < 256 * 6) ++good;  // < 6 gray levels per pixel
  }
  EXPECT_GE(good * 10, total * 7)
      << good << "/" << total << " macroblocks trackable";
}

TEST(SyntheticVideo, BusyScenesOutpanSmallWindows) {
  // Scene 2 (a designated busy scene) pans beyond radius 4.
  const SyntheticVideo v(VideoConfig{});
  const auto starts = v.scene_starts();
  const int f = starts[2] + 5;
  const Frame a = v.frame(f);
  const Frame b = v.frame(f + 1);
  MotionConfig narrow{4, 0};
  MotionConfig wide{8, 0};
  std::int64_t sad_narrow = 0, sad_wide = 0;
  for (int mb = 0; mb < b.num_macroblocks(); mb += 5) {
    const auto [x0, y0] = b.mb_origin(mb);
    sad_narrow += estimate_motion(b, a, x0, y0, narrow).sad;
    sad_wide += estimate_motion(b, a, x0, y0, wide).sad;
  }
  EXPECT_GT(sad_narrow, 2 * sad_wide)
      << "radius 4 should not track the busy pan";
}

TEST(SyntheticVideo, PixelsSpanAUsefulRange) {
  const SyntheticVideo v(small_config());
  const Frame f = v.frame(0);
  int lo = 255, hi = 0;
  for (Sample s : f.data()) {
    lo = std::min<int>(lo, s);
    hi = std::max<int>(hi, s);
  }
  EXPECT_LT(lo, 100);
  EXPECT_GT(hi, 150);
}

std::uint64_t fnv1a(std::uint64_t h, const std::vector<Sample>& bytes) {
  for (const Sample b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

struct GoldenVideo {
  int width;
  int height;
  std::uint64_t seed;
  std::uint64_t luma, cb, cr;  ///< FNV-1a over every frame, in order
};

// Recorded from the per-pixel generator the row-separable one replaced;
// any change to a pixel of any plane moves a hash.  Each video is 40
// frames in 3 scenes (14, 13, 13 frames) and every frame is hashed, so
// the grid covers each cut (0, 14, 27), each scene's last frame (13, 26,
// 39) and discs straddling the frame border (in 14 to 40 of the 40
// frames, depending on geometry and seed).
const GoldenVideo kGoldenVideos[] = {
    {32, 32, 7,
     0x046d790cbb3a1e51ULL, 0x73f9bf193f59bd50ULL, 0x91e561583bcb2917ULL},
    {32, 32, 2005,
     0xc202d259869a24fbULL, 0xde810577f180b4c6ULL, 0xbf34cfad04a5823aULL},
    {32, 32, 0x9e3779b97f4a7c15ULL,
     0x2ce1b9b652a64997ULL, 0x467d2bed5d8f129eULL, 0xbe34e14f310d998aULL},
    {64, 48, 7,
     0x26be803ad396df38ULL, 0x8013ab028e623f45ULL, 0x5281e660252b2753ULL},
    {64, 48, 2005,
     0x807058e76efe33daULL, 0x6d1681633f39ce74ULL, 0xc705678d016285b8ULL},
    {64, 48, 0x9e3779b97f4a7c15ULL,
     0x82dbb6ba8dacdad7ULL, 0x5fc7a2d7d393efdfULL, 0x5c0f46d3f199acadULL},
    {80, 64, 7,
     0xaca2a2e5d77f5b77ULL, 0x7228b3131a2eb908ULL, 0x99e83a5619550d98ULL},
    {80, 64, 2005,
     0x858a2338df268d4aULL, 0xd8eaae30c1c8f134ULL, 0x6cc1044d15f24991ULL},
    {80, 64, 0x9e3779b97f4a7c15ULL,
     0x665bdf66877f1e26ULL, 0xd3bef494c7d2f028ULL, 0x7c7124a564e123c5ULL},
    {96, 80, 7,
     0xad2b63d995ec845aULL, 0xb0e88e7a7cb0fc46ULL, 0x393f4bb8a0689a03ULL},
    {96, 80, 2005,
     0x64f5a1907c6ae28dULL, 0xccaec77f296245d2ULL, 0x49daf7f33287a3f7ULL},
    {96, 80, 0x9e3779b97f4a7c15ULL,
     0x6503c139712301e3ULL, 0x1845c3a591f51bb1ULL, 0x709622a1bb12b45fULL},
    {128, 96, 7,
     0xbee907fe37ffd20eULL, 0x98312f431fd981ffULL, 0xea506578874b93e6ULL},
    {128, 96, 2005,
     0xfe21a6460e7756ebULL, 0x54110b1ffc3c3ac6ULL, 0x8a325408a20ca6f3ULL},
    {128, 96, 0x9e3779b97f4a7c15ULL,
     0x9deada048bceb9a1ULL, 0xa779428d5a2bf1e8ULL, 0x5ec9a364a352b398ULL},
    {176, 144, 7,
     0xcee6fffb5016182eULL, 0x720ed3e572c10dadULL, 0xbc0c7066184c95e5ULL},
    {176, 144, 2005,
     0x44af6c9723c4a4e1ULL, 0xc709ea9e212229ecULL, 0x95d36768a7e97837ULL},
    {176, 144, 0x9e3779b97f4a7c15ULL,
     0x20a73af52318356aULL, 0x77fa5b4a066aacf6ULL, 0x33c751d2596e42b6ULL},
};

TEST(SyntheticVideo, GoldenHashesPinEveryPlane) {
  for (const GoldenVideo& g : kGoldenVideos) {
    VideoConfig c;
    c.width = g.width;
    c.height = g.height;
    c.num_frames = 40;
    c.num_scenes = 3;
    c.seed = g.seed;
    const SyntheticVideo v(c);
    std::uint64_t luma = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
    std::uint64_t cb = luma, cr = luma;
    for (int f = 0; f < c.num_frames; ++f) {
      const YuvFrame yuv = v.frame_yuv(f);
      ASSERT_EQ(v.frame(f).data(), yuv.y.data())
          << g.width << "x" << g.height << " seed " << g.seed << " frame "
          << f << ": frame() and frame_yuv().y disagree";
      luma = fnv1a(luma, yuv.y.data());
      cb = fnv1a(cb, yuv.cb.data());
      cr = fnv1a(cr, yuv.cr.data());
    }
    SCOPED_TRACE(testing::Message() << g.width << "x" << g.height << " seed "
                                    << g.seed << std::hex << " luma 0x"
                                    << luma << " cb 0x" << cb << " cr 0x"
                                    << cr);
    EXPECT_EQ(luma, g.luma);
    EXPECT_EQ(cb, g.cb);
    EXPECT_EQ(cr, g.cr);
  }
}

// --- Carried renders -----------------------------------------------------

bool last_of_scene(const SyntheticVideo& v, int f) {
  return f + 1 == v.num_frames() || v.is_scene_cut(f + 1);
}

/// The frame orders a carry must be indifferent to: in order (across
/// every cut), skipping 1-3 frames with each visited frame rendered
/// twice (a zero shift), backward, and scrambled.
std::vector<std::vector<int>> access_orders(int n, std::uint64_t seed) {
  std::vector<int> forward(static_cast<std::size_t>(n));
  for (int f = 0; f < n; ++f) forward[static_cast<std::size_t>(f)] = f;
  std::vector<int> skipping;
  for (int f = 0, k = 0; f < n; f += 2 + k++ % 3) {
    skipping.insert(skipping.end(), {f, f});
  }
  std::vector<int> backward(forward.rbegin(), forward.rend());
  std::vector<int> scrambled = forward;
  std::shuffle(scrambled.begin(), scrambled.end(), std::mt19937_64(seed));
  return {forward, skipping, backward, scrambled};
}

/// Renders `order` through one carry, alternating frame_yuv() and
/// frame(), and compares every plane with the cold render.  Also checks
/// that the carry is empty exactly after a scene's last frame.
void expect_carried_equals_cold(const SyntheticVideo& v,
                                const std::vector<YuvFrame>& cold,
                                const std::vector<int>& order) {
  SyntheticVideo::Carry carry;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const int f = order[k];
    const YuvFrame& want = cold[static_cast<std::size_t>(f)];
    SCOPED_TRACE(testing::Message() << "visit " << k << ", frame " << f);
    if (k % 2 == 0) {
      const YuvFrame got = v.frame_yuv(f, &carry);
      ASSERT_EQ(got.y.data(), want.y.data());
      ASSERT_EQ(got.cb.data(), want.cb.data());
      ASSERT_EQ(got.cr.data(), want.cr.data());
    } else {
      ASSERT_EQ(v.frame(f, &carry).data(), want.y.data());
    }
    ASSERT_EQ(carry.empty(), last_of_scene(v, f));
  }
}

TEST(SyntheticVideoCarry, CarriedRendersEqualColdRenders) {
  // The four mixed-geometry sizes, 80x64 and QCIF.
  const int kGeometries[][2] = {{32, 32}, {64, 48},  {96, 80},
                                {128, 96}, {80, 64}, {176, 144}};
  // Pan signs seen, per axis: [negative, zero, positive].
  bool seen_x[3] = {}, seen_y[3] = {};
  for (const auto& g : kGeometries) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      for (const int scenes : {1, 2, 9}) {
        VideoConfig c;
        c.width = g[0];
        c.height = g[1];
        c.num_scenes = scenes;
        c.num_frames = std::max(8, 2 * scenes);
        c.seed = seed * 0x9e3779b97f4a7c15ULL;
        const SyntheticVideo v(c);
        SCOPED_TRACE(testing::Message() << g[0] << "x" << g[1] << " seed "
                                        << c.seed << ", " << scenes
                                        << " scenes");
        for (int s = 0; s < scenes; ++s) {
          const SyntheticVideo::Pan p = v.pan_of(s);
          seen_x[(p.vx > 0) - (p.vx < 0) + 1] = true;
          seen_y[(p.vy > 0) - (p.vy < 0) + 1] = true;
        }
        std::vector<YuvFrame> cold;
        for (int f = 0; f < c.num_frames; ++f) cold.push_back(v.frame_yuv(f));
        for (const auto& order : access_orders(c.num_frames, c.seed)) {
          expect_carried_equals_cold(v, cold, order);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  for (int sign = 0; sign < 3; ++sign) {
    EXPECT_TRUE(seen_x[sign]) << "no scene with horizontal pan sign "
                              << sign - 1;
    EXPECT_TRUE(seen_y[sign]) << "no scene with vertical pan sign "
                              << sign - 1;
  }
}

TEST(SyntheticVideoCarry, ForeignCarryIsRebuiltNotReused) {
  VideoConfig base = small_config();
  base.num_frames = 20;
  base.num_scenes = 2;
  VideoConfig other_seed = base;
  other_seed.seed = 8;
  VideoConfig other_width = base;
  other_width.width = 80;
  VideoConfig other_height = base;
  other_height.height = 64;
  VideoConfig other_length = base;  // same scenes, shifted cut
  other_length.num_frames = 22;
  VideoConfig other_scenes = base;
  other_scenes.num_scenes = 4;
  const SyntheticVideo a(base);
  for (const VideoConfig& c :
       {other_seed, other_width, other_height, other_length, other_scenes}) {
    const SyntheticVideo b(c);
    SyntheticVideo::Carry carry;
    a.frame_yuv(12, &carry);
    ASSERT_FALSE(carry.empty());
    EXPECT_EQ(b.frame(13, &carry).data(), b.frame(13).data());
    // And back: b's carry is foreign to a.
    EXPECT_EQ(a.frame(13, &carry).data(), a.frame(13).data());
  }
  // Another scene of the same video: frame 9 is scene 0's last, so a
  // carry left at frame 8 must not be shifted into scene 1.
  SyntheticVideo::Carry carry;
  a.frame(8, &carry);
  EXPECT_EQ(a.frame(10, &carry).data(), a.frame(10).data());
  // A different noise amplitude leaves the background alone, so the
  // carry may be shared; the output still matches.
  VideoConfig quiet = base;
  quiet.noise_amplitude = 0.5;
  const SyntheticVideo q(quiet);
  EXPECT_EQ(q.frame(11, &carry).data(), q.frame(11).data());
}

TEST(SyntheticVideoCarry, EmptyAfterEachScenesLastFrame) {
  VideoConfig c = small_config();  // scenes start at 0, 30, 60
  const SyntheticVideo v(c);
  SyntheticVideo::Carry carry;
  EXPECT_TRUE(carry.empty());
  v.frame_yuv(28, &carry);
  EXPECT_FALSE(carry.empty());
  v.frame_yuv(29, &carry);
  EXPECT_TRUE(carry.empty());
  v.frame(31, &carry);
  EXPECT_FALSE(carry.empty());
  v.frame(59, &carry);
  EXPECT_TRUE(carry.empty());
  v.frame(89, &carry);
  EXPECT_TRUE(carry.empty());
}

TEST(SyntheticVideoCarry, OneVideoManyThreadsOwnCarries) {
  const SyntheticVideo v(VideoConfig{.num_frames = 24, .num_scenes = 2});
  std::vector<YuvFrame> cold;
  for (int f = 0; f < v.num_frames(); ++f) cold.push_back(v.frame_yuv(f));
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      SyntheticVideo::Carry carry;
      for (int f = t; f < v.num_frames(); ++f) {
        const YuvFrame got = v.frame_yuv(f, &carry);
        const YuvFrame& want = cold[static_cast<std::size_t>(f)];
        if (got.y.data() != want.y.data() || got.cb.data() != want.cb.data() ||
            got.cr.data() != want.cr.data()) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

TEST(SyntheticVideoDeath, RejectsBadConfig) {
  VideoConfig c = small_config();
  c.num_scenes = 0;
  EXPECT_DEATH({ SyntheticVideo v(c); }, "scene count");
}

TEST(SyntheticVideoDeath, RejectsGeometryOffTheMacroblockGrid) {
  VideoConfig c = small_config();
  c.width = 72;
  EXPECT_DEATH({ SyntheticVideo v(c); }, "multiples of the macroblock size");
  c = small_config();
  c.height = 40;
  EXPECT_DEATH({ SyntheticVideo v(c); }, "multiples of the macroblock size");
}

TEST(SyntheticVideoDeath, RejectsNonFiniteNoiseAmplitude) {
  VideoConfig c = small_config();
  c.noise_amplitude = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH({ SyntheticVideo v(c); }, "noise amplitude must be finite");
  c.noise_amplitude = std::numeric_limits<double>::infinity();
  EXPECT_DEATH({ SyntheticVideo v(c); }, "noise amplitude must be finite");
}

}  // namespace
}  // namespace qosctrl::media
