// Intra prediction for macroblocks coded without a usable temporal
// reference (scene cuts, uncovered content, the very first frame).
//
// Three classic modes — DC, horizontal, vertical — predicted from the
// already-reconstructed pixels above and to the left of the macroblock
// in the *current* frame; the best mode (smallest SAD) wins.
#pragma once

#include <cstdint>

#include "media/frame.h"

namespace qosctrl::media {

enum class IntraMode : std::uint8_t { kDc = 0, kHorizontal, kVertical };

/// The mode decision: the winning mode and its SAD against the source.
struct IntraResult {
  IntraMode mode = IntraMode::kDc;
  std::int64_t sad = 0;  ///< SAD between source and chosen prediction
};

/// Decides the mode of the 16x16 macroblock at (x0, y0) of `recon`
/// whose source pixels are `src` (contiguous, row stride 16).  Each
/// mode's SAD runs through the dispatched sad_16x16 kernel; no
/// prediction is written.  Neighbors outside the frame fall back to
/// mid-gray (128), the standard convention for unavailable references.
IntraResult intra_predict(const Sample* src, const Frame& recon, int x0,
                          int y0);

/// Writes the prediction of one mode into `out` (256 samples, row
/// stride 16) — the shared primitive behind the encoder's and the
/// decoder's reconstruction, so both are bit-exact by construction.
void intra_prediction_mode(const Frame& recon, int x0, int y0,
                           IntraMode mode, Sample* out);

}  // namespace qosctrl::media
