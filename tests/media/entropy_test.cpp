#include "media/entropy.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "media/quant.h"
#include "util/rng.h"

namespace qosctrl::media {
namespace {

TEST(Zigzag, IsAPermutationOf64) {
  const auto& zz = zigzag_order();
  std::set<int> seen(zz.begin(), zz.end());
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 63);
}

TEST(Zigzag, StartsAlongTheKnownPath) {
  const auto& zz = zigzag_order();
  // Standard JPEG/MPEG zigzag: 0, 1, 8, 16, 9, 2, 3, 10, ...
  EXPECT_EQ(zz[0], 0);
  EXPECT_EQ(zz[1], 1);
  EXPECT_EQ(zz[2], 8);
  EXPECT_EQ(zz[3], 16);
  EXPECT_EQ(zz[4], 9);
  EXPECT_EQ(zz[5], 2);
  EXPECT_EQ(zz[63], 63);
}

TEST(ExpGolomb, UnsignedRoundTrip) {
  util::BitWriter bw;
  for (std::uint32_t v = 0; v < 200; ++v) put_ue(bw, v);
  const auto bytes = bw.finish();
  util::BitReader br(bytes);
  for (std::uint32_t v = 0; v < 200; ++v) {
    EXPECT_EQ(get_ue(br), v);
  }
  EXPECT_FALSE(br.overrun());
}

TEST(ExpGolomb, KnownCodeLengths) {
  // ue(0) = 1 bit, ue(1..2) = 3 bits, ue(3..6) = 5 bits.
  const auto bits_for = [](std::uint32_t v) {
    util::BitWriter bw;
    put_ue(bw, v);
    return bw.bit_count();
  };
  EXPECT_EQ(bits_for(0), 1);
  EXPECT_EQ(bits_for(1), 3);
  EXPECT_EQ(bits_for(2), 3);
  EXPECT_EQ(bits_for(3), 5);
  EXPECT_EQ(bits_for(6), 5);
  EXPECT_EQ(bits_for(7), 7);
}

TEST(ExpGolomb, SignedRoundTrip) {
  util::BitWriter bw;
  for (std::int32_t v = -150; v <= 150; ++v) put_se(bw, v);
  const auto bytes = bw.finish();
  util::BitReader br(bytes);
  for (std::int32_t v = -150; v <= 150; ++v) {
    EXPECT_EQ(get_se(br), v);
  }
}

TEST(ExpGolomb, SignedRoundTripAtTheEdgesOfInt32) {
  // 2 * v - 1 overflowed int32 for v >= 2^30 before the mapping moved
  // to 64 bits.
  const std::int32_t values[] = {1 << 30,       -(1 << 30),
                                 (1 << 30) + 1, -(1 << 30) - 1,
                                 INT32_MAX,     -INT32_MAX};
  util::BitWriter bw;
  for (const std::int32_t v : values) put_se(bw, v);
  const auto bytes = bw.finish();
  util::BitReader br(bytes);
  for (const std::int32_t v : values) EXPECT_EQ(get_se(br), v);
  EXPECT_FALSE(br.overrun());
}

TEST(ExpGolomb, LongestUnsignedCodeIs65Bits) {
  util::BitWriter bw;
  put_ue(bw, UINT32_MAX);
  EXPECT_EQ(bw.bit_count(), 65);
  put_ue(bw, UINT32_MAX - 1);
  EXPECT_EQ(bw.bit_count(), 65 + 63);
  const auto bytes = bw.finish();
  util::BitReader br(bytes);
  EXPECT_EQ(get_ue(br), UINT32_MAX);
  EXPECT_EQ(get_ue(br), UINT32_MAX - 1);
  EXPECT_EQ(br.bits_consumed(), 65 + 63);
  EXPECT_FALSE(br.overrun());
}

TEST(ExpGolombDeath, Int32MinIsNotEncodable) {
  // Its code number would be 2^32; it used to wrap to 0 silently.
  util::BitWriter bw;
  EXPECT_DEATH(put_se(bw, INT32_MIN), "out of range");
}

TEST(EncodeBlock, EmptyBlockCostsOneBit) {
  util::BitWriter bw;
  Coeffs8 zero{};
  const std::int64_t bits = encode_block(bw, zero);
  EXPECT_EQ(bits, 1);  // just the end-of-block flag
}

TEST(EncodeBlock, RoundTripsSparseBlocks) {
  Coeffs8 levels{};
  levels[0] = 5;
  levels[10] = -3;
  levels[63] = 1;
  util::BitWriter bw;
  encode_block(bw, levels);
  const auto bytes = bw.finish();
  util::BitReader br(bytes);
  Coeffs8 out;
  ASSERT_TRUE(decode_block(br, out));
  EXPECT_EQ(out, levels);
}

TEST(EncodeBlock, DenserBlocksCostMoreBits) {
  Coeffs8 sparse{}, dense{};
  sparse[0] = 1;
  for (std::size_t i = 0; i < 64; ++i) {
    dense[i] = static_cast<std::int32_t>((i % 5) - 2);
  }
  util::BitWriter bs, bd;
  const auto s = encode_block(bs, sparse);
  const auto d = encode_block(bd, dense);
  EXPECT_GT(d, s);
}

TEST(EncodeBlock, LargerMagnitudesCostMoreBits) {
  Coeffs8 small{}, big{};
  small[0] = 1;
  big[0] = 1000;
  util::BitWriter bs, bb;
  EXPECT_GT(encode_block(bb, big), encode_block(bs, small));
}

// Round-trip property over random blocks of varying density.
class EntropyRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(EntropyRoundTrip, LosslessAtDensity) {
  const int nonzeros = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(nonzeros) * 7919 + 1);
  for (int trial = 0; trial < 100; ++trial) {
    Coeffs8 levels{};
    for (int k = 0; k < nonzeros; ++k) {
      const auto pos = static_cast<std::size_t>(rng.uniform_i64(0, 63));
      std::int32_t v = 0;
      while (v == 0) {
        v = static_cast<std::int32_t>(rng.uniform_i64(-500, 500));
      }
      levels[pos] = v;
    }
    util::BitWriter bw;
    const std::int64_t bits = encode_block(bw, levels);
    EXPECT_GT(bits, 0);
    const auto bytes = bw.finish();
    util::BitReader br(bytes);
    Coeffs8 out;
    ASSERT_TRUE(decode_block(br, out));
    EXPECT_EQ(out, levels);
    EXPECT_FALSE(br.overrun());
  }
}

INSTANTIATE_TEST_SUITE_P(Density, EntropyRoundTrip,
                         ::testing::Values(0, 1, 2, 4, 8, 16, 32, 64));

TEST(DecodeBlock, RejectsRunPastEndOfBlock) {
  // Hand-craft a stream whose zero-run walks past coefficient 63.
  util::BitWriter bw;
  bw.put_bit(true);
  put_ue(bw, 70);   // run of 70 > 63
  put_se(bw, 1);
  bw.put_bit(false);
  const auto bytes = bw.finish();
  util::BitReader br(bytes);
  Coeffs8 out;
  EXPECT_FALSE(decode_block(br, out));
}

TEST(DecodeBlock, RejectsLevelsTheQuantizerCannotProduce) {
  for (const std::int32_t level : {kMaxLevel, -kMaxLevel, kMaxLevel + 1,
                                   -kMaxLevel - 1, INT32_MAX}) {
    Coeffs8 levels{};
    levels[3] = level;
    util::BitWriter bw;
    encode_block(bw, levels);
    const auto bytes = bw.finish();
    util::BitReader br(bytes);
    Coeffs8 out;
    const bool ok = decode_block(br, out);
    if (level >= -kMaxLevel && level <= kMaxLevel) {
      ASSERT_TRUE(ok) << level;
      EXPECT_EQ(out, levels);
    } else {
      EXPECT_FALSE(ok) << level;
    }
  }
}

TEST(DecodeBlock, RejectsTruncatedStream) {
  util::BitWriter bw;
  Coeffs8 levels{};
  levels[5] = 3;
  levels[60] = -2;
  encode_block(bw, levels);
  auto bytes = bw.finish();
  bytes.pop_back();
  util::BitReader br(bytes);
  Coeffs8 out;
  // Either cleanly rejected, or (if the cut landed in padding) intact.
  if (decode_block(br, out)) {
    EXPECT_EQ(out, levels);
  }
}

TEST(EncodeBlock, MultipleBlocksShareAStream) {
  util::Rng rng(5);
  std::vector<Coeffs8> blocks;
  util::BitWriter bw;
  for (int b = 0; b < 20; ++b) {
    Coeffs8 levels{};
    for (int k = 0; k < 6; ++k) {
      levels[static_cast<std::size_t>(rng.uniform_i64(0, 63))] =
          static_cast<std::int32_t>(rng.uniform_i64(-9, 9));
    }
    encode_block(bw, levels);
    blocks.push_back(levels);
  }
  const auto bytes = bw.finish();
  util::BitReader br(bytes);
  for (const auto& expected : blocks) {
    Coeffs8 out;
    ASSERT_TRUE(decode_block(br, out));
    EXPECT_EQ(out, expected);
  }
}

}  // namespace
}  // namespace qosctrl::media
