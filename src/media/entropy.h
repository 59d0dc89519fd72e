// Entropy coding of quantized 8x8 blocks: zigzag scan, zero-run/level
// pairs, and signed/unsigned exp-Golomb codes, plus the matching
// decoder so tests can verify lossless round trips.  The bit counts it
// produces feed both the rate controller and the Compress action's
// content-coupled work scale.
#pragma once

#include "media/frame.h"
#include "util/bitio.h"

namespace qosctrl::media {

/// The standard 8x8 zigzag scan order (index i -> raster position).
const std::array<int, 64>& zigzag_order();

/// Writes an unsigned exp-Golomb code for v >= 0.
void put_ue(util::BitWriter& bw, std::uint32_t v);
/// Reads an unsigned exp-Golomb code.  A malformed code (more than 32
/// leading zeros, or no 1 before the end of the buffer) reads as 0.
std::uint32_t get_ue(util::BitReader& br);

/// Signed exp-Golomb mapping (0, 1, -1, 2, -2, ...).  Every int32 but
/// INT32_MIN is encodable (its code number would be 2^32).
void put_se(util::BitWriter& bw, std::int32_t v);
std::int32_t get_se(util::BitReader& br);

/// Encodes one quantized block as (run, level) pairs in zigzag order
/// followed by an end-of-block marker.  Returns the number of bits
/// appended to `bw`.
std::int64_t encode_block(util::BitWriter& bw, const Coeffs8& levels);

/// The same codes counted into a util::BitCounter, without forming
/// them: each call adds the number of bits its BitWriter overload
/// appends (which encode_block also returns).
void put_ue(util::BitCounter& bc, std::uint32_t v);
void put_se(util::BitCounter& bc, std::int32_t v);
std::int64_t encode_block(util::BitCounter& bc, const Coeffs8& levels);

/// Decodes one block previously written by encode_block into `out`.
/// Returns false on a corrupt stream (zero-run past the end of the
/// block, a level beyond kMaxLevel, or reader overrun) — hostile input
/// must fail, not abort.
///
/// While at least kDecodeFastModeBits bits remain, every code of at
/// most kDecodeTableBits bits (flag, ue(run), se(level)) is parsed with
/// one table lookup; end of block, longer codes and the buffer's last
/// kDecodeFastModeBits bits take the exact path.  Both consume the
/// same bits and give the same result.
bool decode_block(util::BitReader& br, Coeffs8& out);

inline constexpr int kDecodeTableBits = 13;
inline constexpr std::int64_t kDecodeFastModeBits = 128;

}  // namespace qosctrl::media
