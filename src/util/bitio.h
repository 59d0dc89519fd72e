// Bit-level writer/reader used by the entropy coder.
//
// BitWriter accumulates bits MSB-first into a byte buffer; BitReader
// replays them.  Both move whole 64-bit words: the writer packs bits
// into a register and stores it big-endian once it is full, and the
// reader serves every read from a 64-bit window at the current bit
// position.  The encoder writes no bytes: BitCounter takes the codes
// and only counts them, which keeps the rate controller's bit
// accounting exact.  BitWriter serves enc::pack_frame, the one code
// that packs a frame (for the golden-bitstream tests, the benches and
// Debug builds' decode checks), and BitReader the decoder of those
// bytes.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/check.h"

namespace qosctrl::util {

namespace detail {

/// `v` in big-endian byte order (a no-op on big-endian hosts).
inline std::uint64_t to_big_endian(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(v);
  } else {
    return v;
  }
}

}  // namespace detail

/// MSB-first bit sink.
class BitWriter {
 public:
  /// Appends the `count` low bits of `value`, most significant first;
  /// higher bits of `value` are ignored.  Requires 0 <= count <= 64.
  void put_bits(std::uint64_t value, int count) {
    QC_EXPECT(count >= 0 && count <= 64, "bit count must be in [0, 64]");
    if (count < 64) value &= (std::uint64_t{1} << count) - 1;
    if (count < free_) {
      acc_ = (acc_ << count) | value;
      free_ -= count;
      return;
    }
    // The register fills up: top it off with the high bits of `value`,
    // store it, and keep the rest.  The bits of `value` left above the
    // pending ones are shifted out before they are ever stored.
    const int spill = count - free_;  // in [0, 63]
    store_word(((acc_ << (free_ - 1)) << 1) | (value >> spill));
    acc_ = value;
    free_ = 64 - spill;
  }

  /// Appends a single bit.
  void put_bit(bool bit) { put_bits(bit ? 1 : 0, 1); }

  /// Number of bits written so far.
  std::int64_t bit_count() const {
    return static_cast<std::int64_t>(size_) * 8 + (64 - free_);
  }

  /// Pads with zero bits to a byte boundary and hands the buffer off;
  /// the writer is empty afterwards.
  std::vector<std::uint8_t> finish();

 private:
  void store_word(std::uint64_t word) {
    if (buf_.size() - size_ < 8) grow();
    word = detail::to_big_endian(word);
    std::memcpy(buf_.data() + size_, &word, 8);
    size_ += 8;
  }
  void grow();

  std::vector<std::uint8_t> buf_;  // [0, size_) is written; the rest spare
  std::size_t size_ = 0;
  std::uint64_t acc_ = 0;  // pending bits in the low 64 - free_ bits
  int free_ = 64;          // in [1, 64]
};

/// The bit sink that writes nothing: it takes the codes a BitWriter
/// takes and only adds up their lengths, for an encoder whose output
/// no decoder reads but whose size the rate controller and the cost
/// model need.  The syntax is written once, as templates over the sink
/// (enc::put_macroblock), so a count equals the packed length.
class BitCounter {
 public:
  void put_bits(std::uint64_t /*value*/, int count) {
    QC_EXPECT(count >= 0 && count <= 64, "bit count must be in [0, 64]");
    bits_ += count;
  }
  void put_bit(bool /*bit*/) { ++bits_; }
  /// Adds a length computed elsewhere (media::encode_block's count).
  void add(std::int64_t bits) { bits_ += bits; }
  std::int64_t bit_count() const { return bits_; }

 private:
  std::int64_t bits_ = 0;
};

/// MSB-first bit source over a byte buffer.  The buffer must outlive
/// the reader and stay unmodified while it reads.
class BitReader {
 public:
  explicit BitReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()),
        size_(bytes.size()),
        bit_size_(static_cast<std::int64_t>(bytes.size()) * 8) {}

  /// Reads `count` bits (MSB first).  Reading past the end returns zero
  /// bits and sets overrun().
  std::uint64_t get_bits(int count) {
    QC_EXPECT(count >= 0 && count <= 64, "bit count must be in [0, 64]");
    if (count == 0) return 0;
    const std::uint64_t v = peek() >> (64 - count);
    skip(count);
    return v;
  }
  bool get_bit() { return get_bits(1) != 0; }

  /// The next 64 bits, MSB-aligned, without consuming them; bits past
  /// the end read as zero.
  std::uint64_t peek() const {
    const auto byte = static_cast<std::uint64_t>(pos_ >> 3);
    if (byte + 8 < size_) {  // the window's 9 source bytes are in range
      std::uint64_t w;
      std::memcpy(&w, data_ + byte, 8);
      w = detail::to_big_endian(w);
      const int shift = static_cast<int>(pos_ & 7);
      return (w << shift) |
             static_cast<std::uint64_t>(data_[byte + 8] >> (8 - shift));
    }
    return peek_tail();
  }

  /// Consumes `count` >= 0 bits; consuming past the end sets overrun().
  void skip(std::int64_t count) {
    QC_DCHECK(count >= 0, "cannot skip backwards");
    pos_ += count;
    if (pos_ > bit_size_) overrun_ = true;
  }

  std::int64_t bits_consumed() const { return pos_; }
  /// Bits left before the end of the buffer (negative after an overrun).
  std::int64_t bits_left() const { return bit_size_ - pos_; }
  bool overrun() const { return overrun_; }

 private:
  std::uint64_t peek_tail() const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::int64_t bit_size_;
  std::int64_t pos_ = 0;
  bool overrun_ = false;
};

}  // namespace qosctrl::util
