#include "media/entropy.h"

#include <algorithm>
#include <bit>
#include <cstdint>

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
std::int32_t se_of(std::uint32_t u) {
  if (u == 0) return 0;
  const std::int64_t mag = (static_cast<std::int64_t>(u) + 1) / 2;
  return (u % 2 == 1) ? static_cast<std::int32_t>(mag)
                      : static_cast<std::int32_t>(-mag);
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
  const std::int64_t before = bw.bit_count();
  std::uint64_t nonzero = 0;  // bit i: zigzag position i holds a level
  for (std::size_t g = 0; g < 16; ++g) {
    const std::int32_t* l = &levels[4 * g];
    const unsigned nib = static_cast<unsigned>(l[0] != 0) |
                         static_cast<unsigned>(l[1] != 0) << 1 |
                         static_cast<unsigned>(l[2] != 0) << 2 |
                         static_cast<unsigned>(l[3] != 0) << 3;
    nonzero |= kNibbleScanBits[g][nib];
  }
  int next = 0;  // first zigzag position after the previous level
  for (; nonzero != 0; nonzero &= nonzero - 1) {
    const int i = std::countr_zero(nonzero);
    const std::int32_t v =
        levels[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(i)])];
    // "Coefficient follows" flag, ue(run), se(level): one put_bits
    // when the three codes fit a word (always, for levels the
    // quantizer can produce).
    const auto run_code = static_cast<std::uint64_t>(i - next) + 1;
    const int run_bits = 2 * std::bit_width(run_code) - 1;
    const std::uint64_t level_code = se_code_number(v) + 1;
    const int level_bits = 2 * std::bit_width(level_code) - 1;
    if (1 + run_bits + level_bits <= 64) {
      bw.put_bits((std::uint64_t{1} << (run_bits + level_bits)) |
                      (run_code << level_bits) | level_code,
                  1 + run_bits + level_bits);
    } else {
      bw.put_bit(true);
      put_ue(bw, static_cast<std::uint32_t>(i - next));
      put_se(bw, v);
    }
    next = i + 1;
  }
  bw.put_bit(false);  // end of block
  return bw.bit_count() - before;
}

std::optional<Coeffs8> decode_block(util::BitReader& br) {
  Coeffs8 out{};
  int pos = 0;
  for (;;) {
    int run = 0;
    std::int32_t level = 0;
    // Fast path: the flag, ue(run) and se(level) all sit in one window
    // and before the end of the buffer, so they parse without refills
    // and exactly as the calls below would.  Every run < 64 has at most
    // 6 leading zeros; with at most 24 for the level the three codes
    // span at most 63 bits.
    const std::uint64_t w = br.peek();
    const int run_zeros = std::countl_zero(w << 1);
    const int level_zeros =
        std::countl_zero(w << std::min(2 + 2 * run_zeros, 63));
    const int total = 3 + 2 * (run_zeros + level_zeros);
    if ((w >> 63) != 0 && run_zeros <= 6 && level_zeros <= 24 &&
        total <= br.bits_left()) {
      const int run_bits = 2 * run_zeros + 1;
      run = static_cast<int>(((w << 1) >> (64 - run_bits)) - 1);
      level = se_of(static_cast<std::uint32_t>(
          ((w << (1 + run_bits)) >> (63 - 2 * level_zeros)) - 1));
      br.skip(total);
    } else {
      if (!br.get_bit()) break;
      run = static_cast<int>(get_ue(br));
      level = get_se(br);
    }
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
