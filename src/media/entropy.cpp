#include "media/entropy.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "media/quant.h"
#include "util/check.h"

namespace qosctrl::media {

namespace {

constexpr std::array<int, 64> make_zigzag() {
  std::array<int, 64> o{};
  int idx = 0;
  for (int s = 0; s < 15; ++s) {  // anti-diagonals
    if (s % 2 == 0) {  // up-right
      for (int y = std::min(s, 7); y >= 0 && s - y <= 7; --y) {
        o[static_cast<std::size_t>(idx++)] = y * 8 + (s - y);
      }
    } else {  // down-left
      for (int x = std::min(s, 7); x >= 0 && s - x <= 7; --x) {
        o[static_cast<std::size_t>(idx++)] = (s - x) * 8 + x;
      }
    }
  }
  return o;
}

constexpr std::array<int, 64> kZigzag = make_zigzag();

// kNibbleScanBits[g][nib]: the zigzag-scan bits of raster positions
// 4g .. 4g+3, for the subset of them flagged in `nib`.  OR-ing one
// entry per group turns a block's raster nonzero flags into its
// zigzag nonzero mask with 16 lookups instead of 64 gathers.
using NibbleTable = std::array<std::array<std::uint64_t, 16>, 16>;

constexpr NibbleTable make_nibble_scan_bits() {
  std::array<int, 64> scan_index{};
  for (std::size_t i = 0; i < 64; ++i) {
    scan_index[static_cast<std::size_t>(kZigzag[i])] = static_cast<int>(i);
  }
  NibbleTable t{};
  for (std::size_t g = 0; g < 16; ++g) {
    for (std::size_t nib = 0; nib < 16; ++nib) {
      for (std::size_t k = 0; k < 4; ++k) {
        if ((nib >> k) & 1) {
          t[g][nib] |= std::uint64_t{1} << scan_index[4 * g + k];
        }
      }
    }
  }
  return t;
}

constexpr NibbleTable kNibbleScanBits = make_nibble_scan_bits();

/// Code number of the signed mapping 0, 1, -1, 2, -2, ... -> 0, 1, 2, 3,
/// 4, ..., i.e. 2·|v| − (v > 0), without a sign branch.  64-bit:
/// INT32_MIN maps to 2^32, one past the largest ue code number.
std::uint64_t se_code_number(std::int32_t v) {
  const std::int64_t wide = v;
  return 2 * static_cast<std::uint64_t>(wide < 0 ? -wide : wide) -
         static_cast<std::uint64_t>(wide > 0);
}

/// Inverse of the signed mapping: code number u -> 0, 1, -1, 2, -2, ...
/// (u = 2^32 − 1 wraps to INT32_MIN).
constexpr std::int32_t se_of(std::uint32_t u) {
  if (u == 0) return 0;
  const std::int64_t mag = (static_cast<std::int64_t>(u) + 1) / 2;
  return (u % 2 == 1) ? static_cast<std::int32_t>(mag)
                      : static_cast<std::int32_t>(-mag);
}

// ---------------------------------------------------------------------------
// Encoder: codes as (value, length) pairs, the length in the top byte.

constexpr int kLengthShift = 24;
constexpr std::uint32_t kCodeMask = (std::uint32_t{1} << kLengthShift) - 1;

/// The value of v's se() code, se_code_number(v) + 1, in 32-bit lanes
/// so that a loop over a block vectorizes.  Exact for |v| < 2^30.
std::uint32_t se_code_value(std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  const std::uint32_t mag = v < 0 ? 0u - u : u;
  return 2 * mag - static_cast<std::uint32_t>(v > 0) + 1;
}

/// std::bit_width(x) for 0 < x < 2^24, read off the exponent of x as
/// a float (exact in that range), which vectorizes where a leading-zero
/// count does not.
std::uint32_t bit_width_below_2_24(std::uint32_t x) {
  const float f = static_cast<float>(static_cast<std::int32_t>(x));
  return (std::bit_cast<std::uint32_t>(f) >> 23) - 126;
}

/// kRunCodes[r]: the "coefficient follows" flag and ue(r), one code of
/// 2·bit_width(r + 1) bits, as value | length << kLengthShift.
constexpr std::array<std::uint32_t, 64> make_run_codes() {
  std::array<std::uint32_t, 64> t{};
  for (std::uint32_t r = 0; r < 64; ++r) {
    const auto ue_bits =
        2 * static_cast<std::uint32_t>(std::bit_width(r + 1)) - 1;
    t[r] = ((std::uint32_t{1} << ue_bits) | (r + 1)) |
           (ue_bits + 1) << kLengthShift;
  }
  return t;
}

constexpr std::array<std::uint32_t, 64> kRunCodes = make_run_codes();

/// Bit i set: zigzag position i holds a nonzero level, from one 0/1
/// flag per raster position.  A multiply gathers the flags of four
/// positions into a nibble (each flag lands on its own bit of the top
/// byte, so nothing carries).
std::uint64_t zigzag_nonzero_mask(const std::array<std::uint8_t, 64>& flags) {
  std::uint64_t nonzero = 0;
  for (std::size_t g = 0; g < 16; ++g) {
    std::uint32_t four;
    std::memcpy(&four, &flags[4 * g], 4);
    if constexpr (std::endian::native == std::endian::big) {
      four = __builtin_bswap32(four);
    }
    nonzero |= kNibbleScanBits[g][(four * 0x01020408u) >> 24];
  }
  return nonzero;
}

/// encode_block for a block holding a level beyond kMaxLevel, whose
/// codes can outgrow the packer: one put_bits-based code at a time.
std::int64_t encode_block_wide(util::BitWriter& bw, const Coeffs8& levels,
                               std::uint64_t nonzero) {
  const std::int64_t before = bw.bit_count();
  int next = 0;
  for (; nonzero != 0; nonzero &= nonzero - 1) {
    const int i = std::countr_zero(nonzero);
    bw.put_bit(true);
    put_ue(bw, static_cast<std::uint32_t>(i - next));
    put_se(bw, levels[static_cast<std::size_t>(
                   kZigzag[static_cast<std::size_t>(i)])]);
    next = i + 1;
  }
  bw.put_bit(false);  // end of block
  return bw.bit_count() - before;
}

// ---------------------------------------------------------------------------
// Decoder: one table lookup per code.

// The table path needs no end-of-buffer check per code: it takes a
// 64-bit window (BitReader::peek reads nine source bytes) only while
// at least kDecodeFastModeBits bits remain, so all nine must fit.
static_assert(kDecodeFastModeBits > 64);

using RunLevelTable =
    std::array<std::uint16_t, std::size_t{1} << kDecodeTableBits>;

/// kRunLevelTable[i]: the code that the kDecodeTableBits bits of i
/// start with (flag 1, ue(run), se(level)) when all of it lies within
/// them, as length | run << 4 | level << 10 with the level in 6-bit
/// two's complement; 0 (length 0) for end of block and longer codes.
constexpr RunLevelTable make_run_level_table() {
  static_assert(kDecodeTableBits <= 13, "run < 64 and |level| < 32 must fit");
  RunLevelTable t{};
  for (std::uint32_t i = 0; i < t.size(); ++i) {
    const std::uint32_t bits = i << (32 - kDecodeTableBits);  // MSB-aligned
    if ((bits >> 31) == 0) continue;  // end of block
    const int run_bits = 2 * std::countl_zero(bits << 1) + 1;
    if (1 + run_bits >= kDecodeTableBits) continue;
    const int level_bits = 2 * std::countl_zero(bits << (1 + run_bits)) + 1;
    const int len = 1 + run_bits + level_bits;
    if (len > kDecodeTableBits) continue;
    const std::uint32_t run = ((bits << 1) >> (32 - run_bits)) - 1;
    const std::int32_t level =
        se_of(((bits << (1 + run_bits)) >> (32 - level_bits)) - 1);
    t[i] = static_cast<std::uint16_t>(
        static_cast<std::uint32_t>(len) | run << 4 |
        (static_cast<std::uint32_t>(level) & 63) << 10);
  }
  return t;
}

constexpr RunLevelTable kRunLevelTable = make_run_level_table();

/// Decodes the block's next codes through kRunLevelTable, continuing
/// at zigzag position `pos`, while at least kDecodeFastModeBits bits
/// remain.  Stops (true) at the first code the table does not hold,
/// leaving it to the exact path; returns false after consuming a code
/// whose run ends past the block, as the exact path would.
bool decode_table_codes(util::BitReader& br, Coeffs8& out, int& pos) {
  int p = pos;
  while (br.bits_left() >= kDecodeFastModeBits) {
    std::uint64_t w = br.peek();  // 64 bits, all before the end
    int used = 0;
    do {
      const unsigned e = kRunLevelTable[w >> (64 - kDecodeTableBits)];
      const int len = static_cast<int>(e & 15);
      if (len == 0) {
        br.skip(used);
        pos = p;
        return true;
      }
      used += len;
      w <<= len;
      p += static_cast<int>((e >> 4) & 63);
      if (p >= 64) {
        br.skip(used);
        return false;
      }
      out[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(p)])] =
          static_cast<std::int16_t>(e) >> 10;
      ++p;
    } while (used <= 64 - kDecodeTableBits);
    br.skip(used);
  }
  pos = p;
  return true;
}

}  // namespace

const std::array<int, 64>& zigzag_order() { return kZigzag; }

void put_ue(util::BitWriter& bw, std::uint32_t v) {
  // Code number v -> (v+1) written with leading zeros: len - 1 zeros
  // then the len bits of v+1, which put_bits emits in one call when the
  // 2·len − 1 bits fit a word (all v < 2^32 − 1).
  const std::uint64_t code = static_cast<std::uint64_t>(v) + 1;
  const int len = std::bit_width(code);
  if (len <= 32) {
    bw.put_bits(code, 2 * len - 1);
  } else {
    bw.put_bits(0, len - 1);
    bw.put_bits(code, len);
  }
}

std::uint32_t get_ue(util::BitReader& br) {
  const std::uint64_t window = br.peek();
  const int zeros = std::countl_zero(window);
  if (zeros <= 32 && zeros < br.bits_left()) {
    if (zeros < 32) {  // the whole 2·zeros + 1 bit code is in the window
      const int len = 2 * zeros + 1;
      br.skip(len);
      return static_cast<std::uint32_t>((window >> (64 - len)) - 1);
    }
    br.skip(33);
    return static_cast<std::uint32_t>(((std::uint64_t{1} << 32) |
                                       br.get_bits(32)) -
                                      1);
  }
  // Malformed stream: no 1 within the first 33 bits, or none before the
  // end.  Consume what a bit-serial scan would have: up to and
  // including the 33rd zero, or the first zero past the end.
  const std::int64_t left = br.bits_left();
  br.skip((left <= 0 ? 0 : std::min<std::int64_t>(left, 32)) + 1);
  return 0;
}

void put_se(util::BitWriter& bw, std::int32_t v) {
  const std::uint64_t mapped = se_code_number(v);
  QC_EXPECT(mapped <= UINT32_MAX,
            "signed exp-Golomb value out of range (INT32_MIN)");
  put_ue(bw, static_cast<std::uint32_t>(mapped));
}

std::int32_t get_se(util::BitReader& br) { return se_of(get_ue(br)); }

std::int64_t encode_block(util::BitWriter& bw, const Coeffs8& levels) {
  // One data-parallel pass over the block in raster order: each
  // position's se(level) code and its length, its nonzero flag, and
  // whether any level lies beyond kMaxLevel (too long for the packer).
  std::array<std::uint32_t, 64> level_codes;
  std::array<std::uint8_t, 64> is_nonzero;
  std::uint32_t wide = 0;
  for (std::size_t j = 0; j < 64; ++j) {
    const std::int32_t v = levels[j];
    const std::uint32_t code = se_code_value(v);
    level_codes[j] = code | static_cast<std::uint32_t>(
                                2 * bit_width_below_2_24(code) - 1)
                                << kLengthShift;
    is_nonzero[j] = static_cast<std::uint8_t>(v != 0);
    wide |= static_cast<std::uint32_t>(v < -kMaxLevel || v > kMaxLevel);
  }
  const std::uint64_t nonzero = zigzag_nonzero_mask(is_nonzero);
  if (wide != 0) return encode_block_wide(bw, levels, nonzero);

  // Walk the levels in zigzag order and pack each one's run code (with
  // the flag) and level code as one code of at most 1 + 13 + 23 bits.
  const std::int64_t before = bw.bit_count();
  {
    util::BitWriter::Packer::Buffer buffer;
    util::BitWriter::Packer packer(bw, buffer);
    std::size_t next = 0;  // first zigzag position after the last level
    for (std::uint64_t m = nonzero; m != 0; m &= m - 1) {
      const auto i = static_cast<std::size_t>(std::countr_zero(m));
      const std::uint32_t run = kRunCodes[i - next];
      const std::uint32_t level =
          level_codes[static_cast<std::size_t>(kZigzag[i])];
      const std::uint32_t level_bits = level >> kLengthShift;
      packer.put(static_cast<std::uint64_t>(run & kCodeMask) << level_bits |
                     (level & kCodeMask),
                 static_cast<int>((run >> kLengthShift) + level_bits));
      next = i + 1;
    }
    packer.put(0, 1);  // end of block
  }
  return bw.bit_count() - before;
}

std::optional<Coeffs8> decode_block(util::BitReader& br) {
  Coeffs8 out{};
  int pos = 0;
  for (;;) {
    if (!decode_table_codes(br, out, pos)) return std::nullopt;
    // The exact path, one code: end of block, a code longer than the
    // table's, or one of the stream's last kDecodeFastModeBits bits.
    if (!br.get_bit()) break;
    const int run = static_cast<int>(get_ue(br));
    const std::int32_t level = get_se(br);
    if (run < 0 || pos + run >= 64 || br.overrun()) {
      return std::nullopt;  // corrupt stream: run past end of block
    }
    if (level < -kMaxLevel || level > kMaxLevel) {
      return std::nullopt;  // no quantizer output is that large
    }
    pos += run;
    out[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(pos)])] =
        level;
    ++pos;
  }
  if (br.overrun()) return std::nullopt;
  return out;
}

}  // namespace qosctrl::media
