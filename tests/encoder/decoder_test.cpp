#include "encoder/decoder.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>

#include "encoder/frame_encoder.h"
#include "encoder/system_builder.h"
#include "media/entropy.h"
#include "media/intra.h"
#include "media/synthetic_video.h"
#include "support/oracles.h"
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

/// Encodes `input` with its syntax kept and packs it: the frame's
/// bitstream.
std::vector<std::uint8_t> encode_packed(FrameEncoder& encoder,
                                        const media::YuvFrame& input,
                                        qos::Controller& ctl,
                                        const rt::ParameterizedSystem& sys,
                                        int qp) {
  FrameSyntax syntax;
  encoder.encode_frame(input, ctl, sys, qp, 0, &syntax);
  return pack_frame(syntax);
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
  const DecodeResult d = decode_frame(
      encode_packed(encoder, v.frame_yuv(0), ctl, *es.system, 8), nullptr);
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
    const DecodeResult d = decode_frame(
        encode_packed(encoder, v.frame_yuv(f), ctl, *es.system, qp),
        f == 0 ? nullptr : &displayed);
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
  const DecodeResult d = decode_frame(
      encode_packed(encoder, v.frame_yuv(1), ctl, *es.system, 8), &ref);
  ASSERT_TRUE(d.ok);
  EXPECT_LT(d.intra_macroblocks, 12) << "continuing scene should be inter";
}

TEST(Decoder, RejectsTruncatedStream) {
  FrameEncoder encoder(cfg(), cost_model());
  const auto es = build_encoder_system(12, 12 * 250000,
                                       platform::figure5_cost_table());
  qos::ConstantController ctl(*es.system, 3);
  auto bytes = encode_packed(encoder, video().frame_yuv(0), ctl, *es.system, 8);
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
  const DecodeResult d = decode_frame(  // frame 1 has inter MBs
      encode_packed(encoder, v.frame_yuv(1), ctl, *es.system, 8), nullptr);
  EXPECT_FALSE(d.ok);
}

TEST(Decoder, RejectsGeometryMismatch) {
  FrameEncoder encoder(cfg(), cost_model());
  const auto es = build_encoder_system(12, 12 * 250000,
                                       platform::figure5_cost_table());
  qos::ConstantController ctl(*es.system, 3);
  const auto v = video();
  encoder.encode_frame(v.frame_yuv(0), ctl, *es.system, 8);
  const media::YuvFrame wrong(32, 32);
  const DecodeResult d = decode_frame(
      encode_packed(encoder, v.frame_yuv(1), ctl, *es.system, 8), &wrong);
  EXPECT_FALSE(d.ok);
}

TEST(Decoder, BitstreamSizeMatchesReportedBits) {
  FrameEncoder encoder(cfg(), cost_model());
  const auto es = build_encoder_system(12, 12 * 250000,
                                       platform::figure5_cost_table());
  qos::ConstantController ctl(*es.system, 3);
  FrameSyntax syntax;
  const FrameStats stats =
      encoder.encode_frame(video().frame_yuv(0), ctl, *es.system, 8, 0,
                           &syntax);
  const std::size_t padded_bytes =
      static_cast<std::size_t>((stats.bits + 7) / 8);
  EXPECT_EQ(pack_frame(syntax).size(), padded_bytes);
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

TEST(Decoder, CorruptedStreamsFailCleanlyOrDecodeInRange) {
  // Seeded corruption of real streams: P-frames of three geometries
  // (one of them odd in both directions) at the top quality level, so
  // half-pel vectors are present, with random bits flipped, bytes
  // overwritten and tails cut.  No call may crash (the ASan+UBSan
  // build runs this too); a stream that still decodes carries only
  // vectors inside the range, and the picture it yields is a reference
  // picture with its border filled.
  util::Rng rng(2029);
  int decoded = 0;
  int rejected = 0;
  for (const auto& [w, h] : {std::pair{64, 48}, std::pair{32, 16},
                             std::pair{48, 80}}) {
    EncoderConfig c;
    c.width = w;
    c.height = h;
    const int mbs = (w / 16) * (h / 16);
    FrameEncoder encoder(c, cost_model());
    const auto es = build_encoder_system(mbs, mbs * 250000,
                                         platform::figure5_cost_table());
    qos::ConstantController ctl(*es.system, es.system->qmax());
    media::VideoConfig vc;
    vc.width = w;
    vc.height = h;
    vc.num_frames = 4;
    vc.num_scenes = 1;
    vc.seed = 5;
    const media::SyntheticVideo v(vc);
    encoder.encode_frame(v.frame_yuv(0), ctl, *es.system, 6);
    for (int f = 1; f < 4; ++f) {
      const media::YuvFrame reference = encoder.reconstructed();
      const std::vector<std::uint8_t> packed =
          encode_packed(encoder, v.frame_yuv(f), ctl, *es.system, 6);
      for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> bytes = packed;
        const auto last = static_cast<std::int64_t>(bytes.size()) - 1;
        for (int k = rng.uniform_i64(1, 8); k > 0; --k) {
          const auto bit = rng.uniform_i64(0, 8 * last + 7);
          bytes[static_cast<std::size_t>(bit / 8)] ^=
              static_cast<std::uint8_t>(0x80 >> (bit % 8));
        }
        for (int k = rng.uniform_i64(0, 3); k > 0; --k) {
          bytes[static_cast<std::size_t>(rng.uniform_i64(0, last))] =
              static_cast<std::uint8_t>(rng.uniform_i64(0, 255));
        }
        if (rng.uniform_i64(0, 3) == 0) {
          bytes.resize(static_cast<std::size_t>(rng.uniform_i64(0, last)));
        }
        (void)decode_frame(bytes, nullptr);
        const DecodeResult d = decode_frame(bytes, &reference);
        if (!d.ok) {
          ++rejected;
          continue;
        }
        ++decoded;
        util::BitReader br(bytes);
        FrameHeader header;
        ASSERT_TRUE(get_frame_header(br, &header));
        ASSERT_EQ(header.mb_cols * 16, w);
        ASSERT_EQ(header.mb_rows * 16, h);
        MbHeader mb;
        MbLevels levels;
        for (int i = 0; i < header.mb_cols * header.mb_rows; ++i) {
          ASSERT_TRUE(get_macroblock(br, &mb, &levels));
          if (mb.intra) continue;
          ASSERT_LE(std::abs(mb.dx2), kMaxVectorHalfPel);
          ASSERT_LE(std::abs(mb.dy2), kMaxVectorHalfPel);
        }
        const media::Plane& luma = d.frame.y;
        for (const media::Plane* p : {&luma, &d.frame.cb, &d.frame.cr}) {
          const int pad = p->pad();
          for (int y = -pad; y < p->height() + pad; ++y) {
            for (int x = -pad; x < p->width() + pad; ++x) {
              ASSERT_EQ(p->row(y)[x], media::at_clamped(*p, x, y));
            }
          }
        }
      }
    }
  }
  // The corruption both breaks streams and leaves some decodable.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
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
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 80; ++x) {
      ASSERT_EQ(d.frame.y.at(x, y), 128)
          << "DC prediction of nothing is mid-gray, and no residual";
    }
  }
}

}  // namespace
}  // namespace qosctrl::enc
