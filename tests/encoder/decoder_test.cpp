#include "encoder/decoder.h"

#include <gtest/gtest.h>

#include "encoder/frame_encoder.h"
#include "encoder/system_builder.h"
#include "media/entropy.h"
#include "media/intra.h"
#include "media/synthetic_video.h"
#include "util/bitio.h"

namespace qosctrl::enc {
namespace {

constexpr int kW = 64;
constexpr int kH = 48;

EncoderConfig cfg() {
  EncoderConfig c;
  c.width = kW;
  c.height = kH;
  return c;
}

platform::CostModel cost_model() {
  return platform::CostModel(platform::figure5_cost_table(),
                             platform::CostModelConfig{}, util::Rng(1));
}

media::SyntheticVideo video() {
  media::VideoConfig vc;
  vc.width = kW;
  vc.height = kH;
  vc.num_frames = 12;
  vc.num_scenes = 2;
  vc.seed = 77;
  return media::SyntheticVideo(vc);
}

TEST(Decoder, FirstFrameRoundTripsBitExactly) {
  FrameEncoder encoder(cfg(), cost_model());
  const auto es = build_encoder_system(12, 12 * 250000,
                                       platform::figure5_cost_table());
  qos::ConstantController ctl(*es.system, 3);
  const auto v = video();
  encoder.encode_frame(v.frame_yuv(0), ctl, *es.system, 8);
  const DecodeResult d = decode_frame(encoder.bitstream(), nullptr);
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.qp, 8);
  EXPECT_EQ(d.frame.y.data(), encoder.reconstructed().y.data())
      << "decoder must reproduce the encoder's luma exactly";
  EXPECT_EQ(d.frame.cb.data(), encoder.reconstructed().cb.data());
  EXPECT_EQ(d.frame.cr.data(), encoder.reconstructed().cr.data());
  EXPECT_EQ(d.intra_macroblocks, 12);
}

TEST(Decoder, InterFramesRoundTripAcrossAGop) {
  FrameEncoder encoder(cfg(), cost_model());
  const auto es = build_encoder_system(12, 12 * 250000,
                                       platform::figure5_cost_table());
  qos::TableController ctl(es.tables);
  const auto v = video();
  media::YuvFrame displayed;  // decoder-side reference
  for (int f = 0; f < 10; ++f) {
    const int qp = 4 + f;  // exercise several quantizers
    encoder.encode_frame(v.frame_yuv(f), ctl, *es.system, qp);
    const DecodeResult d =
        decode_frame(encoder.bitstream(), f == 0 ? nullptr : &displayed);
    ASSERT_TRUE(d.ok) << "frame " << f;
    EXPECT_EQ(d.qp, qp);
    ASSERT_EQ(d.frame.y.data(), encoder.reconstructed().y.data())
        << "luma drift at frame " << f;
    ASSERT_EQ(d.frame.cb.data(), encoder.reconstructed().cb.data())
        << "cb drift at frame " << f;
    ASSERT_EQ(d.frame.cr.data(), encoder.reconstructed().cr.data())
        << "cr drift at frame " << f;
    displayed = d.frame;
  }
}

TEST(Decoder, ReportsIntraCounts) {
  FrameEncoder encoder(cfg(), cost_model());
  const auto es = build_encoder_system(12, 12 * 250000,
                                       platform::figure5_cost_table());
  qos::ConstantController ctl(*es.system, 5);
  const auto v = video();
  encoder.encode_frame(v.frame_yuv(0), ctl, *es.system, 8);
  media::YuvFrame ref = encoder.reconstructed();
  encoder.encode_frame(v.frame_yuv(1), ctl, *es.system, 8);
  const DecodeResult d = decode_frame(encoder.bitstream(), &ref);
  ASSERT_TRUE(d.ok);
  EXPECT_LT(d.intra_macroblocks, 12) << "continuing scene should be inter";
}

TEST(Decoder, RejectsTruncatedStream) {
  FrameEncoder encoder(cfg(), cost_model());
  const auto es = build_encoder_system(12, 12 * 250000,
                                       platform::figure5_cost_table());
  qos::ConstantController ctl(*es.system, 3);
  encoder.encode_frame(video().frame_yuv(0), ctl, *es.system, 8);
  auto bytes = encoder.bitstream();
  bytes.resize(bytes.size() / 2);
  const DecodeResult d = decode_frame(bytes, nullptr);
  EXPECT_FALSE(d.ok);
}

TEST(Decoder, RejectsEmptyAndGarbage) {
  EXPECT_FALSE(decode_frame({}, nullptr).ok);
  EXPECT_FALSE(decode_frame({0x00}, nullptr).ok);
  const std::vector<std::uint8_t> garbage(64, 0xFF);
  // All-ones parses as tiny geometry with huge QP or overruns; either
  // way it must fail cleanly, not crash.
  (void)decode_frame(garbage, nullptr);
}

TEST(Decoder, RejectsInterWithoutReference) {
  FrameEncoder encoder(cfg(), cost_model());
  const auto es = build_encoder_system(12, 12 * 250000,
                                       platform::figure5_cost_table());
  qos::ConstantController ctl(*es.system, 5);
  const auto v = video();
  encoder.encode_frame(v.frame_yuv(0), ctl, *es.system, 8);
  encoder.encode_frame(v.frame_yuv(1), ctl, *es.system, 8);  // has inter MBs
  const DecodeResult d = decode_frame(encoder.bitstream(), nullptr);
  EXPECT_FALSE(d.ok);
}

TEST(Decoder, RejectsGeometryMismatch) {
  FrameEncoder encoder(cfg(), cost_model());
  const auto es = build_encoder_system(12, 12 * 250000,
                                       platform::figure5_cost_table());
  qos::ConstantController ctl(*es.system, 3);
  const auto v = video();
  encoder.encode_frame(v.frame_yuv(0), ctl, *es.system, 8);
  encoder.encode_frame(v.frame_yuv(1), ctl, *es.system, 8);
  const media::YuvFrame wrong(32, 32);
  const DecodeResult d = decode_frame(encoder.bitstream(), &wrong);
  EXPECT_FALSE(d.ok);
}

TEST(Decoder, BitstreamSizeMatchesReportedBits) {
  FrameEncoder encoder(cfg(), cost_model());
  const auto es = build_encoder_system(12, 12 * 250000,
                                       platform::figure5_cost_table());
  qos::ConstantController ctl(*es.system, 3);
  const FrameStats stats =
      encoder.encode_frame(video().frame_yuv(0), ctl, *es.system, 8);
  const std::size_t padded_bytes =
      static_cast<std::size_t>((stats.bits + 7) / 8);
  EXPECT_EQ(encoder.bitstream().size(), padded_bytes);
}

TEST(Decoder, RejectsLevelsThatWouldOverflowDequantization) {
  // Header ue(1) ue(1) ue(31), intra mode 0, then one coefficient:
  // flag 1, ue(0) run, ue(0xFFFFFFFE) = se(-0x7FFFFFFF) level, and the
  // zero padding reads as end-of-block.  Dequantizing that level
  // (level * 2 * 31) overflowed int32 before decode_block bounded
  // levels by media::kMaxLevel.
  const std::vector<std::uint8_t> crafted{0x48, 0x10, 0x4C, 0x00,
                                          0x00, 0x00, 0x07, 0xFF,
                                          0xFF, 0xFF, 0xF8};
  const DecodeResult d = decode_frame(crafted, nullptr);
  EXPECT_FALSE(d.ok);
}

TEST(Decoder, RejectsInt32MinMotionVector) {
  // An inter macroblock whose dx2 is ue(0xFFFFFFFF), which get_se maps
  // to INT32_MIN: the range check must not take its absolute value.
  util::BitWriter bw;
  media::put_ue(bw, 1);
  media::put_ue(bw, 1);
  media::put_ue(bw, 8);
  bw.put_bit(false);
  media::put_ue(bw, UINT32_MAX);
  media::put_se(bw, 0);
  const media::YuvFrame reference(16, 16);
  const DecodeResult d = decode_frame(bw.finish(), &reference);
  EXPECT_FALSE(d.ok);
}

TEST(Decoder, RejectsGeometryTheStreamCannotFillBeforeAllocating) {
  // ue(1024) ue(1024) ue(2) in 6 bytes: a 16384x16384 frame with 3 bits
  // left, when every macroblock needs at least 9.
  util::BitWriter bw;
  media::put_ue(bw, 1024);
  media::put_ue(bw, 1024);
  media::put_ue(bw, 2);
  const std::vector<std::uint8_t> bytes = bw.finish();
  ASSERT_EQ(bytes.size(), 6u);
  const DecodeResult d = decode_frame(bytes, nullptr);
  EXPECT_FALSE(d.ok);
  EXPECT_TRUE(d.frame.empty()) << "no frame may be allocated";

  // One bit short of the bound: a 6x1-macroblock header (11 bits) and
  // 53 bits where six macroblocks need 54.
  util::BitWriter short_by_one;
  media::put_ue(short_by_one, 6);
  media::put_ue(short_by_one, 1);
  media::put_ue(short_by_one, 2);
  short_by_one.put_bits(0, 53);
  ASSERT_EQ(short_by_one.bit_count(), 64);
  const DecodeResult s = decode_frame(short_by_one.finish(), nullptr);
  EXPECT_FALSE(s.ok);
  EXPECT_TRUE(s.frame.empty());
}

TEST(Decoder, DecodesAStreamExactlyAtTheMacroblockBitBound) {
  // A 5x1-macroblock header (11 bits) and five 9-bit macroblocks, each
  // intra DC with six empty blocks: 1 00 000000.  56 bits, no padding.
  util::BitWriter bw;
  media::put_ue(bw, 5);
  media::put_ue(bw, 1);
  media::put_ue(bw, 2);
  for (int mb = 0; mb < 5; ++mb) {
    bw.put_bit(true);
    bw.put_bits(static_cast<std::uint64_t>(media::IntraMode::kDc), 2);
    bw.put_bits(0, 6);
  }
  ASSERT_EQ(bw.bit_count(), 56);
  const DecodeResult d = decode_frame(bw.finish(), nullptr);
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.frame.width(), 80);
  EXPECT_EQ(d.frame.height(), 16);
  EXPECT_EQ(d.intra_macroblocks, 5);
  EXPECT_EQ(d.frame.y.data(),
            std::vector<media::Sample>(80 * 16, media::Sample{128}))
      << "DC prediction of nothing is mid-gray, and no residual";
}

}  // namespace
}  // namespace qosctrl::enc
