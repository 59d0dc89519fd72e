// Bitstream decoder — the receiving end of the encoder's Compress
// action, and the ground truth for what a viewer sees.
//
// The decoder runs the encoder's own macroblock codec
// (encoder/macroblock.h) — same header syntax, same intra prediction
// from its own partially-decoded frame, same motion compensation, same
// dequantize + inverse DCT — so its output is bit-exact with
// FrameEncoder::reconstructed().  That equivalence is
// the encoder's end-to-end correctness test: the PSNR numbers reported
// for every experiment are PSNR against a *decodable* stream, not
// against internal state.
//
// rebuild_frame runs the same macroblock loop over syntax the encoder
// kept in memory instead of parsed bytes.  A farm session whose decoder
// has drifted from the encoder builds the viewer's picture that way;
// decode_frame, fed enc::pack_frame's bytes of the same syntax, stays
// its oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "encoder/macroblock.h"
#include "media/yuv.h"

namespace qosctrl::enc {

/// Outcome of decoding one frame.
struct DecodeResult {
  /// The displayed picture (4:2:0), a reference picture (yuv.h) whose
  /// borders are filled when ok.
  media::YuvFrame frame;
  int qp = 0;                  ///< quantizer parsed from the header
  int intra_macroblocks = 0;
  bool ok = false;             ///< false on malformed input
};

/// Decodes one frame produced by FrameEncoder.
///
/// `reference` is the previously displayed frame (needed for inter
/// macroblocks), read in place: a reference picture with filled
/// borders, as a successful decode returns.  Pass nullptr for a stream
/// known to be all-intra (the first frame).  Returns ok == false when
/// the stream is truncated,
/// has an impossible header, or references motion without a reference
/// frame.
DecodeResult decode_frame(const std::vector<std::uint8_t>& bitstream,
                          const media::YuvFrame* reference);

/// Builds, from a frame's syntax kept in memory, the picture
/// decode_frame builds from the frame's bytes: the same macroblock loop,
/// with no bytes written or parsed.  `syntax` must hold a whole frame
/// (what FrameEncoder::encode_frame keeps in its `syntax` buffer), and
/// decode_frame(pack_frame(syntax)) is its oracle.  Kept syntax is
/// well formed, so the result is ok == false only where decode_frame's
/// would be for a well-formed stream: an inter macroblock with no
/// reference, or a reference of another geometry.
DecodeResult rebuild_frame(const FrameSyntax& syntax,
                           const media::YuvFrame* reference);

}  // namespace qosctrl::enc
