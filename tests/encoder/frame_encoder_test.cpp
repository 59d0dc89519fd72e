#include "encoder/frame_encoder.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "encoder/decoder.h"
#include "encoder/system_builder.h"
#include "media/simd/kernels.h"
#include "media/synthetic_video.h"

namespace qosctrl::enc {
namespace {

constexpr int kW = 64;
constexpr int kH = 48;  // 4 x 3 = 12 macroblocks

EncoderConfig small_encoder_config() {
  EncoderConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  return cfg;
}

platform::CostModel make_cost_model(std::uint64_t seed = 1) {
  return platform::CostModel(platform::figure5_cost_table(),
                             platform::CostModelConfig{}, util::Rng(seed));
}

EncoderSystem small_system(rt::Cycles budget = 12 * 250000) {
  return build_encoder_system(12, budget, platform::figure5_cost_table());
}

media::SyntheticVideo small_video() {
  media::VideoConfig vc;
  vc.width = kW;
  vc.height = kH;
  vc.num_frames = 20;
  vc.num_scenes = 2;
  vc.seed = 99;
  return media::SyntheticVideo(vc);
}

TEST(FrameEncoder, EncodesAllMacroblocks) {
  FrameEncoder encoder(small_encoder_config(), make_cost_model());
  const auto es = small_system();
  qos::TableController ctl(es.tables);
  const auto video = small_video();
  const FrameStats stats =
      encoder.encode_frame(video.frame_yuv(0), ctl, *es.system, 8);
  EXPECT_GT(stats.encode_cycles, 0);
  EXPECT_GT(stats.bits, 0);
  EXPECT_GT(stats.psnr, 20.0);
  EXPECT_TRUE(ctl.done());
}

TEST(FrameEncoder, FirstFrameIsAllIntra) {
  FrameEncoder encoder(small_encoder_config(), make_cost_model());
  const auto es = small_system();
  qos::ConstantController ctl(*es.system, 3);
  const auto video = small_video();
  const FrameStats stats =
      encoder.encode_frame(video.frame_yuv(0), ctl, *es.system, 8);
  EXPECT_EQ(stats.intra_macroblocks, 12);
  EXPECT_FALSE(encoder.has_reference() == false);  // set after encoding
}

TEST(FrameEncoder, SecondFrameUsesInterPrediction) {
  FrameEncoder encoder(small_encoder_config(), make_cost_model());
  const auto es = small_system();
  qos::ConstantController ctl(*es.system, 5);
  const auto video = small_video();
  encoder.encode_frame(video.frame_yuv(0), ctl, *es.system, 8);
  const FrameStats s1 =
      encoder.encode_frame(video.frame_yuv(1), ctl, *es.system, 8);
  EXPECT_LT(s1.intra_macroblocks, 12)
      << "a continuing scene must yield inter macroblocks";
}

TEST(FrameEncoder, ResetReferenceForcesIntra) {
  FrameEncoder encoder(small_encoder_config(), make_cost_model());
  const auto es = small_system();
  qos::ConstantController ctl(*es.system, 5);
  const auto video = small_video();
  encoder.encode_frame(video.frame_yuv(0), ctl, *es.system, 8);
  encoder.reset_reference();
  const FrameStats s =
      encoder.encode_frame(video.frame_yuv(1), ctl, *es.system, 8);
  EXPECT_EQ(s.intra_macroblocks, 12);
}

TEST(FrameEncoder, LowerQpGivesHigherPsnrAndMoreBits) {
  const auto video = small_video();
  const auto es = small_system();
  FrameStats fine, coarse;
  {
    FrameEncoder encoder(small_encoder_config(), make_cost_model());
    qos::ConstantController ctl(*es.system, 3);
    encoder.encode_frame(video.frame_yuv(0), ctl, *es.system, 2);
    fine = encoder.encode_frame(video.frame_yuv(1), ctl, *es.system, 2);
  }
  {
    FrameEncoder encoder(small_encoder_config(), make_cost_model());
    qos::ConstantController ctl(*es.system, 3);
    encoder.encode_frame(video.frame_yuv(0), ctl, *es.system, 20);
    coarse = encoder.encode_frame(video.frame_yuv(1), ctl, *es.system, 20);
  }
  EXPECT_GT(fine.psnr, coarse.psnr + 3.0);
  EXPECT_GT(fine.bits, coarse.bits);
}

TEST(FrameEncoder, ReconstructionTracksInput) {
  // PSNR computed against the reconstruction must be what the stats
  // report, and at moderate QP it should comfortably beat 25 dB.
  FrameEncoder encoder(small_encoder_config(), make_cost_model());
  const auto es = small_system();
  qos::ConstantController ctl(*es.system, 3);
  const auto video = small_video();
  const media::YuvFrame input = video.frame_yuv(0);
  const FrameStats stats = encoder.encode_frame(input, ctl, *es.system, 6);
  EXPECT_DOUBLE_EQ(stats.psnr,
                   media::psnr(input.y, encoder.reconstructed().y));
  EXPECT_GT(stats.psnr, 25.0);
}

TEST(FrameEncoder, DeterministicForFixedSeedAndController) {
  const auto video = small_video();
  const auto es = small_system();
  FrameStats a, b;
  {
    FrameEncoder encoder(small_encoder_config(), make_cost_model(5));
    qos::TableController ctl(es.tables);
    a = encoder.encode_frame(video.frame_yuv(0), ctl, *es.system, 8);
  }
  {
    FrameEncoder encoder(small_encoder_config(), make_cost_model(5));
    qos::TableController ctl(es.tables);
    b = encoder.encode_frame(video.frame_yuv(0), ctl, *es.system, 8);
  }
  EXPECT_EQ(a.encode_cycles, b.encode_cycles);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_DOUBLE_EQ(a.psnr, b.psnr);
}

TEST(FrameEncoder, LateStartShrinksChosenQuality) {
  const auto video = small_video();
  const auto es = small_system();
  FrameEncoder e1(small_encoder_config(), make_cost_model(7));
  FrameEncoder e2(small_encoder_config(), make_cost_model(7));
  qos::TableController c1(es.tables), c2(es.tables);
  // Warm both with the same first frame.
  e1.encode_frame(video.frame_yuv(0), c1, *es.system, 8, 0);
  e2.encode_frame(video.frame_yuv(0), c2, *es.system, 8, 0);
  const FrameStats on_time =
      e1.encode_frame(video.frame_yuv(1), c1, *es.system, 8, 0);
  const FrameStats late = e2.encode_frame(video.frame_yuv(1), c2, *es.system, 8,
                                          es.budget / 2);
  EXPECT_LT(late.mean_quality, on_time.mean_quality);
}

TEST(FrameEncoder, ControlledRunMeetsDeadlines) {
  const auto video = small_video();
  const auto es = small_system();
  FrameEncoder encoder(small_encoder_config(), make_cost_model(11));
  qos::TableController ctl(es.tables);
  for (int f = 0; f < 10; ++f) {
    const FrameStats s =
        encoder.encode_frame(video.frame_yuv(f), ctl, *es.system, 8);
    EXPECT_EQ(s.deadline_misses, 0) << "frame " << f;
    EXPECT_LE(s.encode_cycles, es.budget) << "frame " << f;
  }
}

TEST(FrameEncoder, QualityRangeIsReported) {
  const auto video = small_video();
  const auto es = small_system();
  FrameEncoder encoder(small_encoder_config(), make_cost_model(13));
  qos::TableController ctl(es.tables);
  const FrameStats s =
      encoder.encode_frame(video.frame_yuv(0), ctl, *es.system, 8);
  EXPECT_LE(s.min_quality, s.max_quality);
  EXPECT_GE(s.mean_quality, static_cast<double>(s.min_quality));
  EXPECT_LE(s.mean_quality, static_cast<double>(s.max_quality));
}


struct GoldenStream {
  int width;
  int height;
  int qp;
  std::uint64_t hash;  ///< FNV-1a over every frame's bitstream, in order
  std::int64_t bits;   ///< sum of FrameStats::bits over the frames
};

// Recorded from the bit-at-a-time writer and the division quantizer
// that the word-at-a-time writer and the reciprocal quantizer replaced.
// Each run encodes 12 frames in 3 scenes under the table controller, so
// a change to any emitted bit moves the hash, and (through the
// Compress action's content-coupled cost) usually every later frame.
const GoldenStream kGoldenStreams[] = {
    {64, 48, 1, 0xd5ffeff9d06e9f0fULL, 282740},
    {64, 48, 2, 0xc0ad004135d708eeULL, 192359},
    {64, 48, 8, 0x5677361edb535cb3ULL, 63171},
    {64, 48, 31, 0xd2a90e250f34992dULL, 23868},
    {128, 96, 1, 0xe542ef0fcb925958ULL, 1023709},
    {128, 96, 2, 0xbadba0cad38c6224ULL, 712795},
    {128, 96, 8, 0xf8c8cc4e0519a076ULL, 223330},
    {128, 96, 31, 0xbc7cd18e2f5a7885ULL, 78538},
    {176, 144, 1, 0x862f490f9ba2bed9ULL, 2047088},
    {176, 144, 2, 0xdf0cb1d0ea2db589ULL, 1442525},
    {176, 144, 8, 0xbe265cdce1c247faULL, 413951},
    {176, 144, 31, 0x570be9e1802a5d4dULL, 154966},
};

// Every SIMD backend this machine runs must produce the same bits:
// the pins are checked under scalar, SSE2 and AVX2 (and NEON on
// AArch64) in one binary.
TEST(FrameEncoder, GoldenBitstreamsPinEveryBit) {
  const media::simd::ScopedBackendRestore restore;
  for (const media::simd::Backend backend :
       {media::simd::Backend::kScalar, media::simd::Backend::kSse2,
        media::simd::Backend::kAvx2, media::simd::Backend::kNeon}) {
    if (!media::simd::backend_supported(backend)) continue;
    media::simd::set_backend_for_testing(backend);
    for (const GoldenStream& g : kGoldenStreams) {
      EncoderConfig cfg;
      cfg.width = g.width;
      cfg.height = g.height;
      const int mbs = (g.width / 16) * (g.height / 16);
      const auto es = build_encoder_system(mbs, mbs * rt::Cycles{250000},
                                           platform::figure5_cost_table());
      media::VideoConfig vc;
      vc.width = g.width;
      vc.height = g.height;
      vc.num_frames = 12;
      vc.num_scenes = 3;
      vc.seed = 2005;
      const media::SyntheticVideo video(vc);
      FrameEncoder encoder(cfg, make_cost_model(3));
      qos::TableController ctl(es.tables);
      std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
      std::int64_t bits = 0;
      media::YuvFrame displayed;
      const std::string where = testing::PrintToString(g.width) + "x" +
                                testing::PrintToString(g.height) + " qp " +
                                testing::PrintToString(g.qp) + " backend " +
                                media::simd::backend_name(backend);
      for (int f = 0; f < vc.num_frames; ++f) {
        const FrameStats s =
            encoder.encode_frame(video.frame_yuv(f), ctl, *es.system, g.qp);
        bits += s.bits;
        for (const std::uint8_t b : encoder.bitstream()) {
          hash ^= b;
          hash *= 1099511628211ULL;  // FNV prime
        }
        const DecodeResult d = decode_frame(encoder.bitstream(),
                                            f == 0 ? nullptr : &displayed);
        ASSERT_TRUE(d.ok) << where << " frame " << f;
        ASSERT_EQ(d.frame.y.data(), encoder.reconstructed().y.data())
            << where;
        ASSERT_EQ(d.frame.cb.data(), encoder.reconstructed().cb.data())
            << where;
        ASSERT_EQ(d.frame.cr.data(), encoder.reconstructed().cr.data())
            << where;
        displayed = d.frame;
      }
      SCOPED_TRACE(testing::Message() << where << std::hex << " hash 0x"
                                      << hash << std::dec << " bits "
                                      << bits);
      EXPECT_EQ(hash, g.hash);
      EXPECT_EQ(bits, g.bits);
    }
  }
}

}  // namespace
}  // namespace qosctrl::enc
