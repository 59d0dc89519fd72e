#include "util/bitio.h"

#include <algorithm>

namespace qosctrl::util {

void BitWriter::grow() {
  buf_.resize(std::max<std::size_t>(256, 2 * buf_.size()));
}

std::vector<std::uint8_t> BitWriter::finish() {
  const int pending = 64 - free_;
  if (pending > 0) {
    // Left-align the pending bits (zero padding below them) and store
    // the whole word; only its first ceil(pending / 8) bytes are kept.
    store_word((acc_ << (free_ - 1)) << 1);
    size_ -= 8 - static_cast<std::size_t>((pending + 7) / 8);
  }
  buf_.resize(size_);
  std::vector<std::uint8_t> out = std::move(buf_);
  *this = BitWriter();
  return out;
}

std::uint64_t BitReader::peek_tail() const {
  // Near (or past) the end: assemble the window byte by byte, reading
  // zeros past the last byte.  The ninth byte peek() would merge in is
  // always past the end here, so the low bits shift in as zeros.
  const auto byte = static_cast<std::uint64_t>(pos_ >> 3);
  std::uint64_t w = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    w = (w << 8) | (byte + i < size_ ? data_[byte + i] : 0u);
  }
  return w << (pos_ & 7);
}

}  // namespace qosctrl::util
