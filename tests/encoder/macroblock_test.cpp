// The macroblock codec on its own: header put/get round trips and
// rejections, counts equal to packed lengths, and the decoder's prediction of inter vectors out to the
// ends of the legal range, which the encoder never writes (its widest
// vector is 17 half pels), checked at every border macroblock against
// a border-clamped compensation written here.
#include "encoder/macroblock.h"

#include <gtest/gtest.h>

#include <vector>

#include "encoder/decoder.h"
#include "media/entropy.h"
#include "media/quant.h"
#include "support/oracles.h"
#include "util/rng.h"

namespace qosctrl::enc {
namespace {

/// Sparse random levels within the decoder's level bound.
MbLevels random_levels(util::Rng& rng) {
  MbLevels levels{};
  for (media::Coeffs8& block : levels) {
    for (std::int32_t& level : block) {
      if (rng.uniform_i64(0, 5) == 0) {
        level = static_cast<std::int32_t>(
            rng.uniform_i64(-media::kMaxLevel, media::kMaxLevel));
      }
    }
  }
  return levels;
}

void fill_random(util::Rng& rng, media::Plane& plane) {
  for (int y = 0; y < plane.height(); ++y) {
    for (int x = 0; x < plane.width(); ++x) {
      plane.set(x, y, static_cast<media::Sample>(rng.uniform_i64(0, 255)));
    }
  }
}

/// Parses one macroblock from what put_macroblock wrote, requiring the
/// parse to consume exactly the written bits.
bool round_trip(const MbHeader& header, const MbLevels& levels,
                MbHeader* got_header, MbLevels* got_levels) {
  util::BitWriter bw;
  put_macroblock(bw, header, levels);
  const std::int64_t bits = bw.bit_count();
  const std::vector<std::uint8_t> bytes = bw.finish();
  util::BitReader br(bytes);
  const bool ok = get_macroblock(br, got_header, got_levels);
  if (ok) {
    EXPECT_EQ(br.bits_left(),
              static_cast<std::int64_t>(bytes.size()) * 8 - bits);
  }
  return ok;
}

TEST(MacroblockCodec, FrameHeaderRoundTrips) {
  for (const FrameHeader h : {FrameHeader{1, 1, media::kMinQp},
                              FrameHeader{11, 9, 2},
                              FrameHeader{kMaxMbPerSide, 3, media::kMaxQp}}) {
    util::BitWriter bw;
    put_frame_header(bw, h);
    // Room for the macroblocks the geometry promises.
    for (int mb = 0; mb < h.mb_cols * h.mb_rows; ++mb) {
      bw.put_bits(0, kMinMacroblockBits);
    }
    const std::vector<std::uint8_t> bytes = bw.finish();
    util::BitReader br(bytes);
    FrameHeader got;
    ASSERT_TRUE(get_frame_header(br, &got)) << h.mb_cols << "x" << h.mb_rows;
    EXPECT_EQ(got.mb_cols, h.mb_cols);
    EXPECT_EQ(got.mb_rows, h.mb_rows);
    EXPECT_EQ(got.qp, h.qp);
  }
}

TEST(MacroblockCodec, FrameHeaderRejectsOutOfRangeFields) {
  const auto parses = [](std::uint32_t cols, std::uint32_t rows,
                         std::uint32_t qp) {
    util::BitWriter bw;
    media::put_ue(bw, cols);
    media::put_ue(bw, rows);
    media::put_ue(bw, qp);
    bw.put_bits(0, 64);  // enough for a few macroblocks
    const std::vector<std::uint8_t> bytes = bw.finish();
    util::BitReader br(bytes);
    FrameHeader h;
    return get_frame_header(br, &h);
  };
  EXPECT_TRUE(parses(2, 3, 8));
  EXPECT_FALSE(parses(0, 3, 8));
  EXPECT_FALSE(parses(2, 0, 8));
  EXPECT_FALSE(parses(kMaxMbPerSide + 1, 1, 8));
  EXPECT_FALSE(parses(1, kMaxMbPerSide + 1, 8));
  EXPECT_FALSE(parses(UINT32_MAX - 1, 1, 8));
  EXPECT_FALSE(parses(2, 3, media::kMinQp - 1));
  EXPECT_FALSE(parses(2, 3, media::kMaxQp + 1));
  // 64 bits of macroblocks hold at most seven at 9 bits each.
  EXPECT_TRUE(parses(7, 1, 8));
  EXPECT_FALSE(parses(8, 1, 8));
}

TEST(MacroblockCodec, IntraHeadersRoundTripInEveryMode) {
  util::Rng rng(5);
  for (const media::IntraMode mode :
       {media::IntraMode::kDc, media::IntraMode::kHorizontal,
        media::IntraMode::kVertical}) {
    const MbHeader header{true, mode, 0, 0};
    const MbLevels levels = random_levels(rng);
    MbHeader got;
    MbLevels got_levels;
    ASSERT_TRUE(round_trip(header, levels, &got, &got_levels));
    EXPECT_TRUE(got.intra);
    EXPECT_EQ(got.mode, mode);
    EXPECT_EQ(got_levels, levels);
  }
}

TEST(MacroblockCodec, InterHeadersRoundTripOverTheVectorRange) {
  util::Rng rng(6);
  for (int dy2 = -kMaxVectorHalfPel; dy2 <= kMaxVectorHalfPel; dy2 += 17) {
    for (int dx2 = -kMaxVectorHalfPel; dx2 <= kMaxVectorHalfPel; dx2 += 15) {
      const MbHeader header{false, media::IntraMode::kDc, dx2, dy2};
      const MbLevels levels = random_levels(rng);
      MbHeader got;
      MbLevels got_levels;
      ASSERT_TRUE(round_trip(header, levels, &got, &got_levels))
          << dx2 << "," << dy2;
      EXPECT_FALSE(got.intra);
      EXPECT_EQ(got.dx2, dx2);
      EXPECT_EQ(got.dy2, dy2);
      EXPECT_EQ(got_levels, levels);
    }
  }
  // The ends of the range, where the sweep's step does not land.
  for (const int v : {-kMaxVectorHalfPel, kMaxVectorHalfPel}) {
    MbHeader got;
    MbLevels got_levels;
    EXPECT_TRUE(round_trip(MbHeader{false, media::IntraMode::kDc, v, -v},
                           MbLevels{}, &got, &got_levels));
    EXPECT_EQ(got.dx2, v);
    EXPECT_EQ(got.dy2, -v);
  }
}

// Counting (util::BitCounter) goes through the same put_* templates as
// packing, so every header and macroblock counts its packed length.
TEST(MacroblockCodec, CountEqualsPackedLength) {
  util::Rng rng(8);
  std::vector<MbHeader> headers;
  for (const media::IntraMode mode :
       {media::IntraMode::kDc, media::IntraMode::kHorizontal,
        media::IntraMode::kVertical}) {
    headers.push_back({true, mode, 0, 0});
  }
  for (const int v : {-kMaxVectorHalfPel, -1, 0, 1, kMaxVectorHalfPel}) {
    headers.push_back({false, media::IntraMode::kDc, v, -v});
    headers.push_back({false, media::IntraMode::kDc, v, kMaxVectorHalfPel});
  }
  for (int i = 0; i < 200; ++i) {
    headers.push_back(
        {false, media::IntraMode::kDc,
         static_cast<int>(
             rng.uniform_i64(-kMaxVectorHalfPel, kMaxVectorHalfPel)),
         static_cast<int>(
             rng.uniform_i64(-kMaxVectorHalfPel, kMaxVectorHalfPel))});
  }
  util::BitWriter stream;
  util::BitCounter stream_count;
  for (const MbHeader& header : headers) {
    for (const MbLevels& levels : {random_levels(rng), MbLevels{}}) {
      util::BitWriter bw;
      util::BitCounter bc;
      const std::int64_t packed = put_macroblock(bw, header, levels);
      EXPECT_EQ(packed, bw.bit_count());
      EXPECT_EQ(put_macroblock(bc, header, levels), packed);
      EXPECT_EQ(bc.bit_count(), packed);
      put_macroblock(stream, header, levels);
      put_macroblock(stream_count, header, levels);
    }
  }
  EXPECT_EQ(stream_count.bit_count(), stream.bit_count());
  for (const FrameHeader h : {FrameHeader{1, 1, media::kMinQp},
                              FrameHeader{11, 9, 2},
                              FrameHeader{kMaxMbPerSide, 3, media::kMaxQp}}) {
    util::BitWriter bw;
    util::BitCounter bc;
    put_frame_header(bw, h);
    put_frame_header(bc, h);
    EXPECT_EQ(bc.bit_count(), bw.bit_count());
  }
}

TEST(MacroblockCodec, RejectsIntraModeThreeAndVectorsPastTheRange) {
  util::BitWriter mode3;
  mode3.put_bit(true);
  mode3.put_bits(3, 2);
  mode3.put_bits(0, 6);
  const std::vector<std::uint8_t> bytes = mode3.finish();
  util::BitReader br(bytes);
  MbHeader header;
  MbLevels levels;
  EXPECT_FALSE(get_macroblock(br, &header, &levels));

  // The range is 15 pixels, one less than the reference pad: ±31 is
  // past it.
  EXPECT_EQ(kMaxVectorHalfPel, 30);
  for (const auto& [dx2, dy2] :
       {std::pair{kMaxVectorHalfPel + 1, 0}, std::pair{0, kMaxVectorHalfPel + 1},
        std::pair{-kMaxVectorHalfPel - 1, 0},
        std::pair{0, -kMaxVectorHalfPel - 1}}) {
    MbHeader got;
    EXPECT_FALSE(round_trip(MbHeader{false, media::IntraMode::kDc, dx2, dy2},
                            MbLevels{}, &got, &levels))
        << dx2 << "," << dy2;
  }
}

/// One frame of inter macroblocks with zero residual, each carrying
/// the vector `vectors[mb % size]`.
std::vector<std::uint8_t> inter_frame(
    int mb_cols, int mb_rows, const std::vector<std::pair<int, int>>& vectors) {
  util::BitWriter bw;
  put_frame_header(bw, {mb_cols, mb_rows, 8});
  for (int mb = 0; mb < mb_cols * mb_rows; ++mb) {
    const auto [dx2, dy2] = vectors[static_cast<std::size_t>(mb) % vectors.size()];
    put_macroblock(bw, {false, media::IntraMode::kDc, dx2, dy2}, MbLevels{});
  }
  return bw.finish();
}

/// Half-pel luma compensation read pixel by pixel from the
/// border-clamped plane: the bilinear rule with its rounding, written
/// independently of the library's in-margin path.
std::array<media::Sample, 256> clamped_halfpel(const media::Plane& ref,
                                               int x0, int y0, int dx2,
                                               int dy2) {
  const int ix = (dx2 >= 0) ? dx2 / 2 : (dx2 - 1) / 2;
  const int iy = (dy2 >= 0) ? dy2 / 2 : (dy2 - 1) / 2;
  const int fx = dx2 - 2 * ix;
  const int fy = dy2 - 2 * iy;
  std::array<media::Sample, 256> out;
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      const int bx = x0 + x + ix;
      const int by = y0 + y + iy;
      const int a = at_clamped(ref, bx, by);
      const int b = at_clamped(ref, bx + fx, by);
      const int c = at_clamped(ref, bx, by + fy);
      const int d = at_clamped(ref, bx + fx, by + fy);
      int v = a;
      if (fx == 1 && fy == 1) {
        v = (a + b + c + d + 2) / 4;
      } else if (fx == 1) {
        v = (a + b + 1) / 2;
      } else if (fy == 1) {
        v = (a + c + 1) / 2;
      }
      out[static_cast<std::size_t>(y * 16 + x)] = static_cast<media::Sample>(v);
    }
  }
  return out;
}

TEST(MacroblockCodec, DecodesTheEndsOfTheVectorRangeAtEveryBorderMacroblock) {
  constexpr int kCols = 3;
  constexpr int kRows = 3;
  util::Rng rng(21);
  media::YuvFrame reference(kCols * 16, kRows * 16);
  fill_random(rng, reference.y);
  fill_random(rng, reference.cb);
  fill_random(rng, reference.cr);
  reference.fill_borders();

  // Every vector of the range, out to its full-pel ends (15 pixels,
  // one less than the margin) and its odd half-pel ends, each carried
  // by every macroblock of one frame: the four corners, the edges and
  // the center.
  constexpr int kEnd = kMaxVectorHalfPel;
  std::vector<std::pair<int, int>> vectors;
  for (int dy2 = -kEnd; dy2 <= kEnd; ++dy2) {
    for (int dx2 = -kEnd; dx2 <= kEnd; ++dx2) vectors.emplace_back(dx2, dy2);
  }
  for (const auto& [dx2, dy2] : vectors) {
    const DecodeResult d =
        decode_frame(inter_frame(kCols, kRows, {{dx2, dy2}}), &reference);
    ASSERT_TRUE(d.ok) << dx2 << "," << dy2;
    EXPECT_EQ(d.intra_macroblocks, 0);
    for (int mb = 0; mb < kCols * kRows; ++mb) {
      const int x0 = (mb % kCols) * 16;
      const int y0 = (mb / kCols) * 16;
      const std::array<media::Sample, 256> luma =
          clamped_halfpel(reference.y, x0, y0, dx2, dy2);
      for (int y = 0; y < 16; ++y) {
        for (int x = 0; x < 16; ++x) {
          ASSERT_EQ(d.frame.y.at(x0 + x, y0 + y),
                    luma[static_cast<std::size_t>(y * 16 + x)])
              << "mb " << mb << " vector " << dx2 << "," << dy2;
        }
      }
      for (int c = 0; c < 2; ++c) {
        const media::Plane& ref = c == 0 ? reference.cb : reference.cr;
        const media::Plane& got = c == 0 ? d.frame.cb : d.frame.cr;
        const std::array<media::Sample, 64> chroma =
            media::chroma_motion_compensate(ref, x0 / 2, y0 / 2, dx2, dy2);
        for (int y = 0; y < 8; ++y) {
          for (int x = 0; x < 8; ++x) {
            ASSERT_EQ(got.at(x0 / 2 + x, y0 / 2 + y),
                      chroma[static_cast<std::size_t>(y * 8 + x)])
                << "mb " << mb << " plane " << c << " vector " << dx2 << ","
                << dy2;
          }
        }
      }
    }
  }

  // One component past the range fails the whole frame.
  for (const auto& v : {std::pair{kEnd + 1, 0}, std::pair{0, -kEnd - 1}}) {
    std::vector<std::pair<int, int>> bad(vectors.begin(), vectors.begin() + 12);
    bad[5] = v;
    EXPECT_FALSE(decode_frame(inter_frame(kCols, kRows, bad), &reference).ok)
        << v.first << "," << v.second;
  }
}

}  // namespace
}  // namespace qosctrl::enc
