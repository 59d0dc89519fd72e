// The macroblock codec: the one statement of the bitstream syntax and
// of the prediction and reconstruction rules.
//
// A frame is a header (geometry in macroblocks, quantizer) followed by
// its macroblocks in raster order.  A macroblock is a header (intra
// flag, then a 2-bit intra mode or a half-pel motion vector) and six
// run-level coded 8x8 blocks in bitstream order: four luma blocks in
// raster order, then Cb and Cr.  FrameEncoder's Intra_Predict,
// Compress and Reconstruct actions and enc::decode_frame all call the
// functions below, so the decoder rebuilds the encoder's
// reconstruction bit for bit by construction.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "media/intra.h"
#include "media/motion.h"
#include "media/yuv.h"
#include "util/bitio.h"

namespace qosctrl::enc {

/// Largest frame side, in macroblocks, a stream may declare.
inline constexpr int kMaxMbPerSide = 1024;
/// Largest |dx2| and |dy2|, in half pels, a stream may carry: one
/// pixel less than the luma reference margin, so the compensated
/// block, interpolation column and row included, stays inside the
/// margins of a reference picture at every macroblock and inter
/// prediction has one path per plane.
inline constexpr int kMaxVectorHalfPel = 2 * (media::kLumaPad - 1);
// A vector of -v half pels reads ceil(v / 2) pixels before the block;
// +v reads floor(v / 2) past it, plus the interpolation's one.  Chroma
// moves by (v + 1) / 2 chroma half pels and reads the same way.  Both
// margins are exactly as wide as the widest reach.
static_assert(media::kLumaPad == kMaxVectorHalfPel / 2 + 1,
              "the luma margin must be the luma vector range's reach");
static_assert(media::kChromaPad == (kMaxVectorHalfPel + 1) / 2 / 2 + 1,
              "the chroma margin must be the chroma vector range's reach");
// The encoder's widest vector: the widest search plus half-pel
// refinement.  Every stream it writes parses.
static_assert(2 * media::kMaxSearchRadius + 1 <= kMaxVectorHalfPel,
              "the vector range must hold every vector the encoder writes");
/// The fewest bits a macroblock can take: the intra flag, a 2-bit mode
/// (or two 1-bit se(0)), six end-of-block bits.
inline constexpr std::int64_t kMinMacroblockBits = 1 + 2 + 6;

struct FrameHeader {
  int mb_cols = 0;
  int mb_rows = 0;
  int qp = 0;
};

struct MbHeader {
  bool intra = true;
  media::IntraMode mode = media::IntraMode::kDc;  ///< intra only
  int dx2 = 0;  ///< motion vector in half pels; inter only
  int dy2 = 0;
};

/// A macroblock's six quantized level blocks in bitstream order.
using MbLevels = std::array<media::Coeffs8, 6>;

/// One macroblock's syntax held in memory: what put_macroblock writes
/// and get_macroblock parses.
struct MbSyntax {
  MbHeader header;
  MbLevels levels;
};

/// A frame's syntax held in memory (what FrameEncoder::encode_frame
/// keeps in the caller's buffer): the header and every macroblock in
/// raster order, as a decoder parses them, so enc::rebuild_frame builds
/// the decoded picture with no bytes written or parsed, and pack_frame
/// writes the frame's bytes.
struct FrameSyntax {
  FrameHeader header;
  std::vector<MbSyntax> macroblocks;
};

/// A macroblock's prediction: the 16x16 luma block (row stride 16) and
/// the Cb and Cr 8x8 blocks (row stride 8).
struct MbPrediction {
  std::array<media::Sample, 256> luma;
  std::array<std::array<media::Sample, 64>, 2> chroma;
};

// The writers take the bit sink as a template parameter: a
// util::BitWriter packs the syntax (pack_frame), a util::BitCounter
// only counts its bits (the encoder's Compress).  Both are instantiated
// in macroblock.cpp, from the one statement of the syntax.

template <class Sink>
void put_frame_header(Sink& bw, const FrameHeader& header);

/// Parses a frame header.  False on overrun, a side outside
/// [1, kMaxMbPerSide] macroblocks, a quantizer outside
/// [kMinQp, kMaxQp], or a geometry the rest of the stream cannot fill
/// at kMinMacroblockBits per macroblock (checked before the caller
/// allocates the frame).
bool get_frame_header(util::BitReader& br, FrameHeader* out);

/// Writes one macroblock; returns the number of bits appended.
template <class Sink>
std::int64_t put_macroblock(Sink& bw, const MbHeader& header,
                            const MbLevels& levels);

/// Packs a frame's syntax into its bytes (header, then every
/// macroblock, zero-padded to a byte boundary), which enc::decode_frame
/// parses.  The only code that writes a frame's bytes.  `bits`, when
/// given, receives the frame's exact length before the padding.
std::vector<std::uint8_t> pack_frame(const FrameSyntax& syntax,
                                     std::int64_t* bits = nullptr);

/// Parses one macroblock's header and its six level blocks.  False on
/// an intra mode above 2, a vector component beyond
/// kMaxVectorHalfPel, a corrupt block, or overrun.
bool get_macroblock(util::BitReader& br, MbHeader* header,
                    MbLevels* levels);

/// Predicts the macroblock at luma (x0, y0).  Intra predicts luma in
/// `header.mode` and chroma by DC from `recon`, the frame being
/// reconstructed.  Inter compensates `reference` (non-null, a reference
/// picture with filled borders, yuv.h) by the header's vector, chroma
/// by half the vector.
void predict_macroblock(const MbHeader& header, int x0, int y0,
                        const media::YuvFrame& recon,
                        const media::YuvFrame* reference,
                        MbPrediction* out);

/// Rebuilds the macroblock at luma (x0, y0) of `recon` from its levels
/// at `qp` and its prediction, block by block through
/// media::reconstruct_block8.
void reconstruct_macroblock(const MbLevels& levels, int qp,
                            const MbPrediction& prediction, int x0, int y0,
                            media::YuvFrame* recon);

}  // namespace qosctrl::enc
