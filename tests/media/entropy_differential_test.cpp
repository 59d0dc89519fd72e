// Differential test of the word-at-a-time bit I/O and run-level coder
// against a bit-at-a-time reference: the writer, reader, exp-Golomb
// codes and block coder the library used before it moved to 64-bit
// words, kept here verbatim (plus the level bound decode_block gained
// since).  Random put_bits sequences, valid / truncated / bit-flipped
// streams and raw random bytes must produce the same bytes, values,
// bits_consumed() and overrun() after every call.  The counting
// overloads (util::BitCounter) must add exactly the packed lengths.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "media/entropy.h"
#include "media/quant.h"
#include "util/bitio.h"
#include "util/rng.h"

namespace qosctrl::media {
namespace {

// ---------------------------------------------------------------------------
// Reference: one bit per loop iteration.

class RefBitWriter {
 public:
  void put_bits(std::uint64_t value, int count) {
    for (int i = count - 1; i >= 0; --i) {
      const bool bit = ((value >> i) & 1) != 0;
      current_ = static_cast<std::uint8_t>((current_ << 1) | (bit ? 1 : 0));
      if (++filled_ == 8) {
        bytes_.push_back(current_);
        current_ = 0;
        filled_ = 0;
      }
    }
    bit_count_ += count;
  }
  void put_bit(bool bit) { put_bits(bit ? 1 : 0, 1); }
  std::int64_t bit_count() const { return bit_count_; }
  std::vector<std::uint8_t> finish() {
    if (filled_ > 0) {
      bytes_.push_back(static_cast<std::uint8_t>(current_ << (8 - filled_)));
      current_ = 0;
      filled_ = 0;
    }
    return bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint8_t current_ = 0;
  int filled_ = 0;
  std::int64_t bit_count_ = 0;
};

class RefBitReader {
 public:
  explicit RefBitReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}
  std::uint64_t get_bits(int count) {
    std::uint64_t v = 0;
    for (int i = 0; i < count; ++i) {
      const std::int64_t byte_index = pos_ >> 3;
      if (byte_index >= static_cast<std::int64_t>(bytes_.size())) {
        overrun_ = true;
        v <<= 1;
        ++pos_;
        continue;
      }
      const int bit_index = 7 - static_cast<int>(pos_ & 7);
      const bool bit = ((bytes_[static_cast<std::size_t>(byte_index)] >>
                         bit_index) & 1) != 0;
      v = (v << 1) | (bit ? 1 : 0);
      ++pos_;
    }
    return v;
  }
  bool get_bit() { return get_bits(1) != 0; }
  std::int64_t bits_consumed() const { return pos_; }
  bool overrun() const { return overrun_; }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::int64_t pos_ = 0;
  bool overrun_ = false;
};

void ref_put_ue(RefBitWriter& bw, std::uint32_t v) {
  const std::uint64_t code = static_cast<std::uint64_t>(v) + 1;
  int bits = 0;
  while ((code >> bits) != 0) ++bits;
  bw.put_bits(0, bits - 1);
  bw.put_bits(code, bits);
}

std::uint32_t ref_get_ue(RefBitReader& br) {
  int zeros = 0;
  while (!br.get_bit()) {
    ++zeros;
    if (zeros > 32 || br.overrun()) return 0;
  }
  std::uint64_t code = 1;
  code = (code << zeros) | br.get_bits(zeros);
  return static_cast<std::uint32_t>(code - 1);
}

// The reference mapping overflowed for |v| >= 2^30; callers stay below.
void ref_put_se(RefBitWriter& bw, std::int32_t v) {
  const std::uint32_t mapped =
      v > 0 ? static_cast<std::uint32_t>(2 * v - 1)
            : static_cast<std::uint32_t>(-2 * static_cast<std::int64_t>(v));
  ref_put_ue(bw, mapped);
}

std::int32_t ref_get_se(RefBitReader& br) {
  const std::uint32_t u = ref_get_ue(br);
  if (u == 0) return 0;
  const std::int64_t mag = (static_cast<std::int64_t>(u) + 1) / 2;
  return (u % 2 == 1) ? static_cast<std::int32_t>(mag)
                      : static_cast<std::int32_t>(-mag);
}

std::int64_t ref_encode_block(RefBitWriter& bw, const Coeffs8& levels) {
  const std::int64_t before = bw.bit_count();
  const auto& zz = zigzag_order();
  int run = 0;
  for (int i = 0; i < 64; ++i) {
    const std::int32_t v =
        levels[static_cast<std::size_t>(zz[static_cast<std::size_t>(i)])];
    if (v == 0) {
      ++run;
      continue;
    }
    bw.put_bit(true);
    ref_put_ue(bw, static_cast<std::uint32_t>(run));
    ref_put_se(bw, v);
    run = 0;
  }
  bw.put_bit(false);
  return bw.bit_count() - before;
}

std::optional<Coeffs8> ref_decode_block(RefBitReader& br) {
  Coeffs8 out{};
  const auto& zz = zigzag_order();
  int pos = 0;
  while (br.get_bit()) {
    const int run = static_cast<int>(ref_get_ue(br));
    const std::int32_t level = ref_get_se(br);
    if (run < 0 || pos + run >= 64 || br.overrun()) return std::nullopt;
    if (level < -kMaxLevel || level > kMaxLevel) return std::nullopt;
    pos += run;
    out[static_cast<std::size_t>(zz[static_cast<std::size_t>(pos)])] = level;
    ++pos;
  }
  if (br.overrun()) return std::nullopt;
  return out;
}

/// The library decoder's verdict in the reference's form: the block,
/// or nothing on a corrupt stream.
std::optional<Coeffs8> lib_decode_block(util::BitReader& br) {
  Coeffs8 out;
  if (!decode_block(br, out)) return std::nullopt;
  return out;
}

// ---------------------------------------------------------------------------
// Stream generators.

/// A level of random magnitude: mostly small, sometimes up to 2^bits.
std::int32_t random_level(util::Rng& rng, int max_bits) {
  const int bits = static_cast<int>(rng.uniform_i64(0, max_bits));
  const auto mag = static_cast<std::int32_t>(
      rng.uniform_i64(1, std::int64_t{1} << bits));
  return rng.uniform_i64(0, 1) == 0 ? mag : -mag;
}

Coeffs8 random_block(util::Rng& rng, int max_level_bits) {
  Coeffs8 levels{};
  const int nonzero = static_cast<int>(rng.uniform_i64(0, 64));
  for (int k = 0; k < nonzero; ++k) {
    levels[static_cast<std::size_t>(rng.uniform_i64(0, 63))] =
        random_level(rng, max_level_bits);
  }
  return levels;
}

/// Blocks through the library's writer, then optionally truncated and
/// bit-flipped; or plain random bytes of a random zero density.
std::vector<std::uint8_t> random_stream(util::Rng& rng) {
  const auto kind = rng.uniform_i64(0, 3);
  if (kind == 0) {
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(rng.uniform_i64(0, 48)));
    // Sparse ones (1 to 8 per 64 bits) make long zero prefixes.
    const auto ones = rng.uniform_i64(1, 8);
    for (auto& b : bytes) {
      for (int bit = 0; bit < 8; ++bit) {
        if (rng.uniform_i64(1, 64) <= ones) {
          b |= static_cast<std::uint8_t>(1 << bit);
        }
      }
    }
    return bytes;
  }
  util::BitWriter bw;
  const int blocks = static_cast<int>(rng.uniform_i64(1, 6));
  for (int i = 0; i < blocks; ++i) {
    encode_block(bw, random_block(rng, kind == 1 ? 29 : 11));
  }
  std::vector<std::uint8_t> bytes = bw.finish();
  if (kind >= 2) {
    bytes.resize(static_cast<std::size_t>(
        rng.uniform_i64(0, static_cast<std::int64_t>(bytes.size()))));
  }
  if (kind == 3 && !bytes.empty()) {
    const int flips = static_cast<int>(rng.uniform_i64(1, 4));
    for (int i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(rng.uniform_i64(
          0, static_cast<std::int64_t>(bytes.size()) * 8 - 1));
      bytes[at / 8] ^= static_cast<std::uint8_t>(0x80 >> (at % 8));
    }
  }
  return bytes;
}

// ---------------------------------------------------------------------------

TEST(EntropyDifferential, PutBitsMatchesBitAtATimeWriter) {
  util::Rng rng(1401);
  for (int trial = 0; trial < 300; ++trial) {
    util::BitWriter bw;
    RefBitWriter ref;
    const int calls = static_cast<int>(rng.uniform_i64(0, 120));
    for (int i = 0; i < calls; ++i) {
      const int count = static_cast<int>(rng.uniform_i64(0, 64));
      const std::uint64_t value = rng.next_u64();  // high garbage set
      bw.put_bits(value, count);
      ref.put_bits(count == 64 ? value : value & ((1ULL << count) - 1),
                   count);
      ASSERT_EQ(bw.bit_count(), ref.bit_count()) << "trial " << trial;
      if (i % 7 == 0) {
        ASSERT_EQ(util::BitWriter(bw).finish(), RefBitWriter(ref).finish())
            << "trial " << trial;
      }
    }
    ASSERT_EQ(util::BitWriter(bw).finish(), RefBitWriter(ref).finish());
    ASSERT_EQ(bw.finish(), ref.finish()) << "trial " << trial;
    EXPECT_EQ(bw.bit_count(), 0) << "finish() leaves the writer empty";
  }
}

TEST(EntropyDifferential, GetBitsMatchesBitAtATimeReader) {
  util::Rng rng(1402);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(rng.uniform_i64(0, 40)));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    util::BitReader br(bytes);
    RefBitReader ref(bytes);
    const int calls = static_cast<int>(rng.uniform_i64(0, 20));
    for (int i = 0; i < calls; ++i) {
      const int count = static_cast<int>(rng.uniform_i64(0, 64));
      ASSERT_EQ(br.get_bits(count), ref.get_bits(count))
          << "trial " << trial << " call " << i;
      ASSERT_EQ(br.bits_consumed(), ref.bits_consumed());
      ASSERT_EQ(br.overrun(), ref.overrun());
    }
  }
}

TEST(EntropyDifferential, CodesAndBlocksWriteTheSameBytes) {
  util::Rng rng(1403);
  for (int trial = 0; trial < 200; ++trial) {
    util::BitWriter bw;
    RefBitWriter ref;
    for (int i = 0; i < 40; ++i) {
      switch (rng.uniform_i64(0, 3)) {
        case 0: {
          // Every code length, including the 65-bit ue(UINT32_MAX).
          const int bits = static_cast<int>(rng.uniform_i64(0, 32));
          const std::uint64_t r = rng.next_u64();
          const auto v = static_cast<std::uint32_t>(
              bits == 32 ? r : r & ((1ULL << bits) - 1));
          put_ue(bw, v);
          ref_put_ue(ref, v);
          break;
        }
        case 1: {
          const std::int32_t v =
              rng.uniform_i64(0, 9) == 0 ? 0 : random_level(rng, 29);
          put_se(bw, v);
          ref_put_se(ref, v);
          break;
        }
        default: {
          // Quantizer-sized levels take the fused path; larger ones
          // (up to 2^29) the split path.
          const Coeffs8 levels =
              random_block(rng, rng.uniform_i64(0, 3) == 0 ? 29 : 11);
          ASSERT_EQ(encode_block(bw, levels), ref_encode_block(ref, levels));
          break;
        }
      }
      ASSERT_EQ(bw.bit_count(), ref.bit_count()) << "trial " << trial;
    }
    ASSERT_EQ(bw.finish(), ref.finish()) << "trial " << trial;
  }
}

TEST(EntropyDifferential, ReadersAgreeOnValidTruncatedFlippedAndRandomStreams) {
  util::Rng rng(1404);
  int blocks_decoded = 0, blocks_rejected = 0, overruns = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::vector<std::uint8_t> bytes = random_stream(rng);
    util::BitReader br(bytes);
    RefBitReader ref(bytes);
    for (int call = 0; call < 24; ++call) {
      const auto op = rng.uniform_i64(0, 9);
      if (op <= 5) {
        const std::optional<Coeffs8> got = lib_decode_block(br);
        ASSERT_EQ(got, ref_decode_block(ref))
            << "trial " << trial << " call " << call;
        ++(got.has_value() ? blocks_decoded : blocks_rejected);
      } else if (op <= 7) {
        ASSERT_EQ(get_ue(br), ref_get_ue(ref))
            << "trial " << trial << " call " << call;
      } else if (op == 8) {
        ASSERT_EQ(get_se(br), ref_get_se(ref))
            << "trial " << trial << " call " << call;
      } else {
        const int count = static_cast<int>(rng.uniform_i64(0, 64));
        ASSERT_EQ(br.get_bits(count), ref.get_bits(count));
      }
      ASSERT_EQ(br.bits_consumed(), ref.bits_consumed())
          << "trial " << trial << " call " << call;
      ASSERT_EQ(br.overrun(), ref.overrun())
          << "trial " << trial << " call " << call;
    }
    overruns += br.overrun() ? 1 : 0;
  }
  // The mix must actually reach every outcome.
  EXPECT_GT(blocks_decoded, 1000);
  EXPECT_GT(blocks_rejected, 1000);
  EXPECT_GT(overruns, 500);
}

TEST(EntropyDifferential, LongZeroRunsAndCodesAtTheBufferEnd) {
  // Every split of a 33+ zero prefix, a lone 1 and a tail across the
  // end of a short buffer: the malformed-code exits of get_ue.
  for (int len = 0; len <= 12; ++len) {
    for (int one_at = 0; one_at <= len * 8 + 1; ++one_at) {
      std::vector<std::uint8_t> bytes(static_cast<std::size_t>(len), 0);
      if (one_at < len * 8) {
        bytes[static_cast<std::size_t>(one_at / 8)] =
            static_cast<std::uint8_t>(0x80 >> (one_at % 8));
      }
      for (int skip = 0; skip <= 9; ++skip) {
        util::BitReader br(bytes);
        RefBitReader ref(bytes);
        br.get_bits(skip);
        ref.get_bits(skip);
        for (int call = 0; call < 3; ++call) {
          ASSERT_EQ(get_ue(br), ref_get_ue(ref))
              << "len " << len << " one_at " << one_at << " skip " << skip;
          ASSERT_EQ(br.bits_consumed(), ref.bits_consumed());
          ASSERT_EQ(br.overrun(), ref.overrun());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The table-driven decoder's and the packing encoder's fast paths.

/// Bits of one level's flag + ue(run) + se(level) code.
int code_bits(int run, std::int32_t level) {
  const auto ue_bits = [](std::uint64_t v) {
    return 2 * static_cast<int>(std::bit_width(v + 1)) - 1;
  };
  const std::int64_t wide = level;
  const auto se_number = static_cast<std::uint64_t>(
      wide > 0 ? 2 * wide - 1 : -2 * wide);
  return 1 + ue_bits(static_cast<std::uint64_t>(run)) + ue_bits(se_number);
}

/// Reads `skip` bits, then decodes `calls` blocks with both readers,
/// which must agree on the result, bits_consumed() and overrun() after
/// every call.
void expect_readers_agree(const std::vector<std::uint8_t>& bytes, int skip,
                          int calls, const std::string& what) {
  util::BitReader br(bytes);
  RefBitReader ref(bytes);
  ASSERT_EQ(br.get_bits(skip), ref.get_bits(skip)) << what;
  for (int call = 0; call < calls; ++call) {
    ASSERT_EQ(lib_decode_block(br), ref_decode_block(ref))
        << what << " call " << call;
    ASSERT_EQ(br.bits_consumed(), ref.bits_consumed())
        << what << " call " << call;
    ASSERT_EQ(br.overrun(), ref.overrun()) << what << " call " << call;
  }
}

/// `bits` random bits through the library's writer.
void put_random_bits(util::BitWriter& bw, util::Rng& rng, int bits) {
  for (; bits > 0; bits -= 64) {
    bw.put_bits(rng.next_u64(), std::min(bits, 64));
  }
}

/// A quantizer-like block: `nonzero` levels, mostly small, at random
/// positions.
Coeffs8 farm_like_block(util::Rng& rng, int nonzero) {
  Coeffs8 levels{};
  for (int k = 0; k < nonzero; ++k) {
    levels[static_cast<std::size_t>(rng.uniform_i64(0, 63))] =
        random_level(rng, rng.uniform_i64(0, 7) == 0 ? 10 : 3);
  }
  return levels;
}

TEST(EntropyDifferential, CodesAroundTheTableWidthAndAtTheLevelBounds) {
  // Every code length is odd (flag + two odd exp-Golomb codes), so the
  // table's edge is crossed by codes of kDecodeTableBits - 2,
  // kDecodeTableBits and kDecodeTableBits + 2 bits; all of them are
  // here, plus run 63 and levels of +-kMaxLevel and one past it.  Each
  // code is a one-level block in fast mode (a 200-bit random tail
  // follows), after one level at position 0 (the table path continues
  // mid-block), and repeated until its runs leave the block.
  util::Rng rng(1405);
  int fits = 0, misses = 0;
  for (int run = 0; run < 64; ++run) {
    for (std::int32_t level = -kMaxLevel - 1; level <= kMaxLevel + 1;
         ++level) {
      if (level == 0) continue;
      const int bits = code_bits(run, level);
      const bool edge = bits >= kDecodeTableBits - 2 &&
                        bits <= kDecodeTableBits + 2;
      if (!edge && run != 63 && std::abs(level) < kMaxLevel) continue;
      ++(bits <= kDecodeTableBits ? fits : misses);
      const auto stream = [&](int lead, int repeats) {
        util::BitWriter bw;
        put_random_bits(bw, rng, lead);
        if (lead == 0 && repeats == 1) {
          bw.put_bit(true);  // a level at position 0, then the code
          put_ue(bw, 0);
          put_se(bw, 1);
        }
        for (int k = 0; k < repeats; ++k) {
          bw.put_bit(true);
          put_ue(bw, static_cast<std::uint32_t>(run));
          put_se(bw, level);
        }
        bw.put_bit(false);
        put_random_bits(bw, rng, 200);
        return bw.finish();
      };
      const std::string what =
          "run " + std::to_string(run) + " level " + std::to_string(level);
      const int lead = static_cast<int>(rng.uniform_i64(1, 7));
      expect_readers_agree(stream(lead, 1), lead, 2, what);
      expect_readers_agree(stream(0, 1), 0, 2, what + " after a level");
      expect_readers_agree(stream(lead, 64 / (run + 1) + 1), lead, 2,
                           what + " repeated");
    }
  }
  EXPECT_GT(fits, 100);
  EXPECT_GT(misses, 100);
}

TEST(EntropyDifferential, BlocksAroundTheFastModeThreshold) {
  // Each block starts with bits_left() from 40 below the fast-mode
  // threshold to past its own end plus the threshold, at every bit
  // alignment: the table path hands over to the exact path before,
  // inside and after the block, and short buffers truncate it.
  util::Rng rng(1406);
  for (int trial = 0; trial < 24; ++trial) {
    const Coeffs8 block =
        farm_like_block(rng, static_cast<int>(rng.uniform_i64(1, 48)));
    util::BitWriter coded;
    const auto block_bits = encode_block(coded, block);
    const std::vector<std::uint8_t> block_bytes = coded.finish();
    for (int lead = 0; lead < 8; ++lead) {
      for (std::int64_t left = kDecodeFastModeBits - 40;
           left <= block_bits + kDecodeFastModeBits + 16; ++left) {
        if ((lead + left) % 8 != 0) continue;
        util::BitWriter bw;
        put_random_bits(bw, rng, lead);
        encode_block(bw, block);
        put_random_bits(bw, rng, 400);
        std::vector<std::uint8_t> bytes = bw.finish();
        bytes.resize(static_cast<std::size_t>((lead + left) / 8));
        expect_readers_agree(bytes, lead, 3,
                             "trial " + std::to_string(trial) + " left " +
                                 std::to_string(left));
      }
    }
    ASSERT_FALSE(block_bytes.empty());
  }
}

TEST(EntropyDifferential, FlipsAndTruncationsInsideFastModeBlocks) {
  // Long streams of farm-like blocks, so that most of each lies in fast
  // mode, with bits flipped inside the blocks and cuts at any bit.
  util::Rng rng(1407);
  int rejected = 0;
  for (int trial = 0; trial < 600; ++trial) {
    util::BitWriter bw;
    const int blocks = static_cast<int>(rng.uniform_i64(4, 16));
    for (int i = 0; i < blocks; ++i) {
      const int nonzero = static_cast<int>(rng.uniform_i64(0, 64));
      encode_block(bw, farm_like_block(rng, nonzero));
    }
    std::vector<std::uint8_t> bytes = bw.finish();
    const auto bits = static_cast<std::int64_t>(bytes.size()) * 8;
    const int flips = static_cast<int>(rng.uniform_i64(0, 3));
    for (int i = 0; i < flips; ++i) {
      const auto at = static_cast<std::size_t>(rng.uniform_i64(0, bits - 1));
      bytes[at / 8] ^= static_cast<std::uint8_t>(0x80 >> (at % 8));
    }
    if (flips == 0 || rng.uniform_i64(0, 1) == 0) {
      bytes.resize(static_cast<std::size_t>(
          rng.uniform_i64(0, static_cast<std::int64_t>(bytes.size()))));
    }
    util::BitReader br(bytes);
    RefBitReader ref(bytes);
    for (int call = 0; call < blocks + 2; ++call) {
      const std::optional<Coeffs8> got = lib_decode_block(br);
      ASSERT_EQ(got, ref_decode_block(ref))
          << "trial " << trial << " call " << call;
      ASSERT_EQ(br.bits_consumed(), ref.bits_consumed())
          << "trial " << trial << " call " << call;
      ASSERT_EQ(br.overrun(), ref.overrun())
          << "trial " << trial << " call " << call;
      rejected += got.has_value() ? 0 : 1;
    }
  }
  EXPECT_GT(rejected, 600);
}

TEST(EntropyDifferential, PackedBlocksBetweenPutBitsAtEveryAlignment) {
  // encode_block packs from whatever the writer holds: 0 to 63 pending
  // bits, after put_bits, put_ue or another block; blocks with run 63,
  // +-kMaxLevel and levels past it (the put_bits path) included.
  util::Rng rng(1408);
  std::vector<Coeffs8> blocks;
  blocks.push_back(Coeffs8{});
  Coeffs8 last{};
  last[static_cast<std::size_t>(zigzag_order()[63])] = -kMaxLevel;
  blocks.push_back(last);
  Coeffs8 full{};
  for (std::size_t i = 0; i < 64; ++i) {
    full[i] = (i % 2 == 0) ? kMaxLevel : -kMaxLevel;
  }
  blocks.push_back(full);
  Coeffs8 wide = full;
  wide[5] = kMaxLevel + 1;
  blocks.push_back(wide);
  for (int i = 0; i < 8; ++i) blocks.push_back(random_block(rng, 11));
  for (int i = 0; i < 8; ++i) {
    const int nonzero = static_cast<int>(rng.uniform_i64(1, 64));
    blocks.push_back(farm_like_block(rng, nonzero));
  }
  for (int align = 0; align < 64; ++align) {
    util::BitWriter bw;
    RefBitWriter ref;
    const std::uint64_t lead = rng.next_u64();
    bw.put_bits(lead, align);
    ref.put_bits(align == 0 ? 0 : lead & ((1ULL << align) - 1), align);
    for (const Coeffs8& block : blocks) {
      ASSERT_EQ(encode_block(bw, block), ref_encode_block(ref, block))
          << "align " << align;
      ASSERT_EQ(bw.bit_count(), ref.bit_count()) << "align " << align;
      ASSERT_EQ(util::BitWriter(bw).finish(), RefBitWriter(ref).finish())
          << "align " << align;
      const auto v = static_cast<std::uint32_t>(rng.uniform_i64(0, 300));
      put_ue(bw, v);
      ref_put_ue(ref, v);
      const int count = static_cast<int>(rng.uniform_i64(0, 64));
      const std::uint64_t value = rng.next_u64();
      bw.put_bits(value, count);
      ref.put_bits(count == 64 ? value : value & ((1ULL << count) - 1),
                   count);
      ASSERT_EQ(bw.bit_count(), ref.bit_count()) << "align " << align;
    }
    ASSERT_EQ(bw.finish(), ref.finish()) << "align " << align;
  }
}

// ---------------------------------------------------------------------------
// Counting: the util::BitCounter overloads add exactly the bits the
// BitWriter overloads pack.

/// The packed length of `levels`, checked against the counted one.
void expect_count_equals_pack(const Coeffs8& levels) {
  util::BitWriter bw;
  util::BitCounter bc;
  const std::int64_t packed = encode_block(bw, levels);
  ASSERT_EQ(packed, bw.bit_count());
  ASSERT_EQ(encode_block(bc, levels), packed);
  ASSERT_EQ(bc.bit_count(), packed);
}

TEST(EntropyCount, BlockCountEqualsPackedLength) {
  util::Rng rng(2203);
  expect_count_equals_pack(Coeffs8{});
  Coeffs8 full{};
  Coeffs8 edge{};
  for (std::size_t i = 0; i < 64; ++i) {
    full[i] = static_cast<std::int32_t>(rng.uniform_i64(1, 3)) *
              (i % 3 == 0 ? -1 : 1);
    edge[i] = (i % 2 == 0) ? kMaxLevel : -kMaxLevel;
  }
  expect_count_equals_pack(full);  // all 64 nonzero, runs of 0
  expect_count_equals_pack(edge);  // all 64 at +-kMaxLevel
  Coeffs8 last{};
  last[static_cast<std::size_t>(zigzag_order()[63])] = kMaxLevel;
  expect_count_equals_pack(last);  // run 63
  for (const std::int32_t wide :
       {kMaxLevel + 1, -kMaxLevel - 1, std::int32_t{INT16_MAX},
        std::int32_t{INT16_MIN}}) {
    Coeffs8 b = full;
    b[static_cast<std::size_t>(rng.uniform_i64(0, 63))] = wide;
    expect_count_equals_pack(b);
  }
  for (int i = 0; i < 2000; ++i) {
    // Levels within kMaxLevel (the masked sum) and out to the int16
    // range (the put_ue/put_se lengths).
    expect_count_equals_pack(random_block(rng, i % 2 == 0 ? 10 : 15));
    expect_count_equals_pack(
        farm_like_block(rng, static_cast<int>(rng.uniform_i64(0, 64))));
  }
}

TEST(EntropyCount, ExpGolombCountsEqualPackedLengths) {
  util::Rng rng(2204);
  std::vector<std::uint32_t> ue = {0, 1, 2, 62, 63, 64, UINT32_MAX - 1,
                                   UINT32_MAX};
  std::vector<std::int32_t> se = {0, 1, -1, kMaxLevel, -kMaxLevel, INT32_MAX,
                                  INT32_MIN + 1};
  for (int i = 0; i < 500; ++i) {
    ue.push_back(static_cast<std::uint32_t>(rng.next_u64() >>
                                            rng.uniform_i64(32, 63)));
    se.push_back(random_level(rng, 30));
  }
  for (const std::uint32_t v : ue) {
    util::BitWriter bw;
    util::BitCounter bc;
    put_ue(bw, v);
    put_ue(bc, v);
    EXPECT_EQ(bc.bit_count(), bw.bit_count()) << "ue " << v;
  }
  for (const std::int32_t v : se) {
    util::BitWriter bw;
    util::BitCounter bc;
    put_se(bw, v);
    put_se(bc, v);
    EXPECT_EQ(bc.bit_count(), bw.bit_count()) << "se " << v;
  }
}

}  // namespace
}  // namespace qosctrl::media
