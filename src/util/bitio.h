// Bit-level writer/reader used by the entropy coder.
//
// BitWriter accumulates bits MSB-first into a byte buffer; BitReader
// replays them.  Both move whole 64-bit words: the writer packs bits
// into a register and stores it big-endian once it is full, and the
// reader serves every read from a 64-bit window at the current bit
// position.  Every macroblock of every encoded frame passes through
// them (about 1.6 kbit per macroblock at the farm's quantizers), so
// they are on the encoder's hot path; the bit accounting stays exact
// because the rate controller steers on it.
#pragma once

#include <array>
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

  /// Every complete byte written so far (without the trailing partial
  /// byte that finish() would pad).
  std::vector<std::uint8_t> bytes() const;

  /// Appends a run of short codes with no bookkeeping per code: each
  /// put() ORs its code into a register that holds fewer than 8 pending
  /// bits, stores the register as 8 bytes and advances by whole bytes,
  /// without a branch.  The Packer takes over the writer's pending bits
  /// and packs into the caller's Buffer.  The destructor appends the
  /// whole 64-bit words to the writer and hands the rest back as
  /// pending bits, so the writer stores the same words, and grows its
  /// buffer at the same points, as put_bits would.  Everything is
  /// inline and the buffer is not part of the Packer, so the packing
  /// state stays in registers.  The writer must not be used while a
  /// Packer on it is alive.
  class Packer {
   public:
    /// Bits one Packer can take: a block's worst case, 64 codes of
    /// 1 + 13 + 23 bits and the end-of-block bit.
    static constexpr std::int64_t kMaxBits = 64 * 37 + 1;
    /// The writer's pending bits (< 64), kMaxBits more, and the 8 bytes
    /// each store writes from the byte of the first pending bit.
    using Buffer = std::array<std::uint8_t, (63 + kMaxBits) / 8 + 8>;

    Packer(BitWriter& writer, Buffer& buffer)
        : writer_(writer),
          begin_(buffer.data()),
          out_(buffer.data()),
          acc_((writer.acc_ << (writer.free_ - 1)) << 1),
          bits_(static_cast<unsigned>(64 - writer.free_)) {
      store();
    }
    ~Packer() {
      const auto bits = static_cast<std::size_t>(out_ - begin_) * 8 + bits_;
      const std::size_t word_bytes = bits / 64 * 8;
      if (word_bytes != 0) {  // an empty writer has no buffer to copy to
        while (writer_.buf_.size() - writer_.size_ < word_bytes) {
          writer_.grow();
        }
        std::memcpy(writer_.buf_.data() + writer_.size_, begin_, word_bytes);
        writer_.size_ += word_bytes;
      }
      // The last store left the pending bits, then zeros, at out_, so
      // the 8 bytes after the whole words hold the rest MSB-aligned.
      std::uint64_t rest;
      std::memcpy(&rest, begin_ + word_bytes, 8);
      rest = detail::to_big_endian(rest);
      const auto pending = static_cast<int>(bits % 64);
      writer_.acc_ = pending == 0 ? 0 : rest >> (64 - pending);
      writer_.free_ = 64 - pending;
    }
    Packer(const Packer&) = delete;
    Packer& operator=(const Packer&) = delete;

    /// Appends the `len` low bits of `code`.  Requires 1 <= len <= 56,
    /// code < 2^len, and at most kMaxBits bits appended in all.
    void put(std::uint64_t code, int len) {
      QC_DCHECK(len >= 1 && len <= 56 && (code >> len) == 0,
                "packer code must fit its length");
      acc_ |= code << (64 - bits_ - static_cast<unsigned>(len));
      bits_ += static_cast<unsigned>(len);
      store();
    }

   private:
    void store() {
      QC_DCHECK(out_ + 8 <= begin_ + sizeof(Buffer), "packer overflow");
      const std::uint64_t word = detail::to_big_endian(acc_);
      std::memcpy(out_, &word, 8);
      out_ += bits_ >> 3;
      acc_ <<= bits_ & ~7u;
      bits_ &= 7;
    }

    BitWriter& writer_;
    std::uint8_t* begin_;
    std::uint8_t* out_;  // the byte of the first pending bit
    std::uint64_t acc_;  // pending bits, MSB-aligned, the rest zero
    unsigned bits_;      // pending bits: < 8 between put() calls
  };

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
