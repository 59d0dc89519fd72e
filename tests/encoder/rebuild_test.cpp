// enc::rebuild_frame against the bitstream oracle: a frame's kept
// syntax must rebuild, from any reference, to exactly what decode_frame
// makes of the syntax's bytes (enc::pack_frame) from that reference —
// the same outcome, intra count, quantizer and every sample.  A tracked
// farm session rebuilds instead of decoding; its Debug build checks the
// same equality on every out-of-sync frame, and this test checks it in
// Release, where QC_DCHECK is off.
#include "encoder/decoder.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "encoder/frame_encoder.h"
#include "encoder/system_builder.h"
#include "media/synthetic_video.h"

namespace qosctrl::enc {
namespace {

struct Geometry {
  int width;
  int height;
};

void expect_rebuild_matches_decode(const FrameSyntax& syntax,
                                   const media::YuvFrame* reference,
                                   const char* which, int frame) {
  const DecodeResult decoded = decode_frame(pack_frame(syntax), reference);
  const DecodeResult rebuilt = rebuild_frame(syntax, reference);
  SCOPED_TRACE(::testing::Message() << which << " reference, frame " << frame);
  ASSERT_EQ(rebuilt.ok, decoded.ok);
  EXPECT_EQ(rebuilt.qp, decoded.qp);
  EXPECT_EQ(rebuilt.intra_macroblocks, decoded.intra_macroblocks);
  EXPECT_EQ(rebuilt.frame.y.data(), decoded.frame.y.data());
  EXPECT_EQ(rebuilt.frame.cb.data(), decoded.frame.cb.data());
  EXPECT_EQ(rebuilt.frame.cr.data(), decoded.frame.cr.data());
}

class RebuildVersusDecode : public ::testing::TestWithParam<Geometry> {};

// Every frame is rebuilt and decoded from the current reference (the
// decoder in sync), from the one two frames back (a decoder that lost
// the previous frame) and from none (a decoder that never had one).
// Frame 0 and the frame after reset_reference() are all intra; the
// others carry inter macroblocks, which fail with no reference.
TEST_P(RebuildVersusDecode, EveryReferenceGivesTheOraclesPicture) {
  const auto [w, h] = GetParam();
  const int mbs = (w / 16) * (h / 16);
  EncoderConfig config;
  config.width = w;
  config.height = h;
  FrameEncoder encoder(
      config, platform::CostModel(platform::figure5_cost_table(),
                                  platform::CostModelConfig{}, util::Rng(3)));
  const auto es = build_encoder_system(mbs, mbs * 250000,
                                       platform::figure5_cost_table());
  qos::TableController ctl(es.tables);
  media::VideoConfig vc;
  vc.width = w;
  vc.height = h;
  vc.num_frames = 8;
  vc.num_scenes = 2;  // the cut is frame 4
  vc.seed = 19;
  const media::SyntheticVideo video(vc);

  constexpr int kResetBefore = 6;
  std::vector<media::YuvFrame> recon;  // the reconstruction of each frame
  FrameSyntax syntax;                  // reused from frame to frame
  int all_intra_without_reference = 0;
  int inter_without_reference = 0;
  for (int f = 0; f < vc.num_frames; ++f) {
    if (f == kResetBefore) encoder.reset_reference();
    const FrameStats stats = encoder.encode_frame(
        video.frame_yuv(f), ctl, *es.system, 4 + f, 0, &syntax);
    ASSERT_EQ(syntax.macroblocks.size(), static_cast<std::size_t>(mbs));
    EXPECT_EQ(syntax.header.qp, 4 + f);

    if (f > 0) {
      expect_rebuild_matches_decode(syntax, &recon.back(), "current", f);
      const DecodeResult rebuilt = rebuild_frame(syntax, &recon.back());
      ASSERT_TRUE(rebuilt.ok);
      EXPECT_EQ(rebuilt.frame.y.data(), encoder.reconstructed().y.data())
          << "in sync, the rebuild is the reconstruction, frame " << f;
    }
    if (f > 1) {
      expect_rebuild_matches_decode(syntax, &recon[recon.size() - 2],
                                    "stale", f);
    }
    expect_rebuild_matches_decode(syntax, nullptr, "no", f);
    const bool all_intra = stats.intra_macroblocks == mbs;
    EXPECT_EQ(rebuild_frame(syntax, nullptr).ok, all_intra)
        << "frame " << f;
    if (all_intra) {
      ++all_intra_without_reference;
    } else {
      ++inter_without_reference;
    }
    recon.push_back(encoder.reconstructed());
  }
  EXPECT_GE(all_intra_without_reference, 2);  // frame 0 and the reset
  EXPECT_GE(inter_without_reference, 3);
}

INSTANTIATE_TEST_SUITE_P(Geometries, RebuildVersusDecode,
                         ::testing::Values(Geometry{64, 48}, Geometry{80, 64},
                                           Geometry{176, 144}),
                         [](const auto& info) {
                           return std::to_string(info.param.width) + "x" +
                                  std::to_string(info.param.height);
                         });

// A syntax that is not a whole frame (a buffer never filled, or one
// whose macroblock count does not match its header) is refused, not
// rebuilt.
TEST(RebuildVersusDecode, OnlyAWholeFrameRebuilds) {
  FrameSyntax syntax;
  EXPECT_DEATH((void)rebuild_frame(syntax, nullptr), "whole frame");
  syntax.header = FrameHeader{2, 1, 8};
  syntax.macroblocks.resize(1);
  EXPECT_DEATH((void)rebuild_frame(syntax, nullptr), "whole frame");
  syntax.macroblocks.resize(2);
  EXPECT_TRUE(rebuild_frame(syntax, nullptr).ok);
}

}  // namespace
}  // namespace qosctrl::enc
