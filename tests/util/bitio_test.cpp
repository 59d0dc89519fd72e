#include "util/bitio.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace qosctrl::util {
namespace {

TEST(BitWriter, CountsBits) {
  BitWriter bw;
  bw.put_bit(true);
  bw.put_bits(0b1010, 4);
  EXPECT_EQ(bw.bit_count(), 5);
}

TEST(BitWriter, PadsToByteOnFinish) {
  BitWriter bw;
  bw.put_bits(0b101, 3);
  const auto bytes = bw.finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10100000);
}

TEST(BitWriter, MsbFirstAcrossBytes) {
  BitWriter bw;
  bw.put_bits(0xABCD, 16);
  const auto bytes = bw.finish();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0xAB);
  EXPECT_EQ(bytes[1], 0xCD);
}

TEST(BitReader, ReadsBackWhatWasWritten) {
  BitWriter bw;
  bw.put_bits(0x3, 2);
  bw.put_bits(0x15, 5);
  bw.put_bits(0xDEADBEEF, 32);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.get_bits(2), 0x3u);
  EXPECT_EQ(br.get_bits(5), 0x15u);
  EXPECT_EQ(br.get_bits(32), 0xDEADBEEFu);
  EXPECT_FALSE(br.overrun());
}

TEST(BitReader, OverrunIsFlaggedNotFatal) {
  const std::vector<std::uint8_t> bytes{0xFF};
  BitReader br(bytes);
  br.get_bits(8);
  EXPECT_FALSE(br.overrun());
  br.get_bits(1);
  EXPECT_TRUE(br.overrun());
}

TEST(BitIo, RandomRoundTrips) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    BitWriter bw;
    std::vector<std::pair<std::uint64_t, int>> written;
    for (int i = 0; i < 200; ++i) {
      const int count = static_cast<int>(rng.uniform_i64(1, 24));
      const std::uint64_t value =
          rng.next_u64() & ((1ULL << count) - 1);
      bw.put_bits(value, count);
      written.emplace_back(value, count);
    }
    const auto bytes = bw.finish();
    BitReader br(bytes);
    for (const auto& [value, count] : written) {
      EXPECT_EQ(br.get_bits(count), value);
    }
    EXPECT_FALSE(br.overrun());
  }
}

TEST(BitWriter, ZeroCountIsNoop) {
  BitWriter bw;
  bw.put_bits(123, 0);
  EXPECT_EQ(bw.bit_count(), 0);
  EXPECT_TRUE(bw.finish().empty());
}

TEST(BitWriter, IgnoresBitsAboveCount) {
  // Each value's garbage sits right above its count, where an unmasked
  // OR would land on the bits already pending.
  BitWriter bw;
  bw.put_bits(0b101, 3);
  bw.put_bits(~0ULL << 2, 2);
  bw.put_bits(0x8000000000000001ULL, 64);
  bw.put_bits(~1ULL, 1);
  EXPECT_EQ(bw.bit_count(), 70);
  const std::vector<std::uint8_t> expected{0xA4, 0, 0, 0, 0, 0, 0, 0, 0x08};
  EXPECT_EQ(bw.finish(), expected);
}

TEST(BitWriter, BytesShowsEveryCompleteByte) {
  BitWriter bw;
  for (int i = 0; i < 70; ++i) {
    bw.put_bits(0xA5, 8);
    bw.put_bits(1, 3);
    const auto bytes = bw.bytes();
    ASSERT_EQ(bytes.size(), static_cast<std::size_t>(bw.bit_count() / 8));
  }
  const auto bytes = bw.bytes();
  ASSERT_GE(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0xA5);
  EXPECT_EQ(bytes[1], 0x34);  // 001 then the top five bits of 0xA5
}

TEST(BitWriter, PackerWritesAndGrowsAsPutBitsWould) {
  // Runs of packed codes between put_bits calls, against the same codes
  // through put_bits alone: the same bytes, and a handed-off buffer of
  // the same capacity (the packer must not make retained bitstreams
  // larger, not even near a doubling).
  Rng rng(100);
  for (int trial = 0; trial < 400; ++trial) {
    BitWriter packed;
    BitWriter plain;
    const int runs = static_cast<int>(rng.uniform_i64(1, 120));
    for (int r = 0; r < runs; ++r) {
      const int count = static_cast<int>(rng.uniform_i64(0, 64));
      const std::uint64_t value = rng.next_u64();
      packed.put_bits(value, count);
      plain.put_bits(value, count);
      BitWriter::Packer::Buffer buffer;
      BitWriter::Packer packer(packed, buffer);
      const int codes = static_cast<int>(rng.uniform_i64(0, 64));
      for (int c = 0; c < codes; ++c) {
        const int len = static_cast<int>(rng.uniform_i64(1, 37));
        const std::uint64_t code = rng.next_u64() >> (64 - len);
        packer.put(code, len);
        plain.put_bits(code, len);
      }
    }
    ASSERT_EQ(packed.bit_count(), plain.bit_count()) << "trial " << trial;
    ASSERT_EQ(packed.bytes(), plain.bytes()) << "trial " << trial;
    const std::vector<std::uint8_t> a = packed.finish();
    const std::vector<std::uint8_t> b = plain.finish();
    ASSERT_EQ(a, b) << "trial " << trial;
    ASSERT_EQ(a.capacity(), b.capacity()) << "trial " << trial;
  }
}

TEST(BitWriter, FinishHandsOffAndEmpties) {
  BitWriter bw;
  bw.put_bits(0xABC, 12);
  EXPECT_EQ(bw.finish(), (std::vector<std::uint8_t>{0xAB, 0xC0}));
  EXPECT_EQ(bw.bit_count(), 0);
  EXPECT_TRUE(bw.bytes().empty());
  bw.put_bits(0x5, 4);
  EXPECT_EQ(bw.finish(), (std::vector<std::uint8_t>{0x50}));
}

TEST(BitReader, FullWordReadsAcrossByteBoundaries) {
  BitWriter bw;
  bw.put_bits(0x5, 3);
  bw.put_bits(0x0123456789ABCDEFULL, 64);
  bw.put_bits(0xFEDCBA9876543210ULL, 64);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.get_bits(3), 0x5u);
  EXPECT_EQ(br.peek(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(br.get_bits(64), 0x0123456789ABCDEFULL);
  EXPECT_EQ(br.get_bits(64), 0xFEDCBA9876543210ULL);
  EXPECT_FALSE(br.overrun());
  EXPECT_EQ(br.bits_left(), 5);
  EXPECT_EQ(br.peek(), 0u);  // padding, then zeros past the end
  EXPECT_EQ(br.get_bits(6), 0u);
  EXPECT_TRUE(br.overrun());
  EXPECT_EQ(br.bits_consumed(), 137);
}

TEST(BitReader, ZeroCountReadsNothingEvenPastTheEnd) {
  const std::vector<std::uint8_t> bytes{0x80};
  BitReader br(bytes);
  br.get_bits(8);
  EXPECT_EQ(br.get_bits(0), 0u);
  EXPECT_FALSE(br.overrun());
  EXPECT_EQ(br.bits_consumed(), 8);
}

TEST(BitIoDeath, RejectsBadCounts) {
  BitWriter bw;
  EXPECT_DEATH(bw.put_bits(0, 65), "bit count");
  EXPECT_DEATH(bw.put_bits(0, -1), "bit count");
  const std::vector<std::uint8_t> bytes{0xFF};
  BitReader br(bytes);
  EXPECT_DEATH(br.get_bits(65), "bit count");
}

}  // namespace
}  // namespace qosctrl::util
