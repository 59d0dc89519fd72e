#include "media/intra.h"

#include <array>
#include <cstring>

#include "media/simd/kernels.h"

namespace qosctrl::media {
namespace {

constexpr int kMb = kMacroBlockSize;
constexpr Sample kMidGray = 128;

// Frames tile exactly into macroblocks, so the row of neighbors above
// exists as a whole iff y0 > 0, and the column to the left iff x0 > 0:
// the per-pixel in_bounds probes of the scalar version reduce to two
// checks hoisted out of the loops, and all reads become dense spans.

Sample dc_value(const Frame& recon, int x0, int y0) {
  int sum = 0;
  int count = 0;
  if (y0 > 0) {
    const Sample* top = recon.row(y0 - 1) + x0;
    for (int x = 0; x < kMb; ++x) sum += top[x];
    count += kMb;
  }
  if (x0 > 0) {
    for (int y = 0; y < kMb; ++y) sum += recon.row(y0 + y)[x0 - 1];
    count += kMb;
  }
  return count > 0 ? static_cast<Sample>((sum + count / 2) / count)
                   : kMidGray;
}

void predict_horizontal(const Frame& recon, int x0, int y0, Sample* out) {
  for (int y = 0; y < kMb; ++y) {
    const Sample left = x0 > 0 ? recon.row(y0 + y)[x0 - 1] : kMidGray;
    std::memset(out, left, kMb);
    out += kMb;
  }
}

/// The row every vertical-mode prediction row repeats.
const Sample* vertical_row(const Frame& recon, int x0, int y0) {
  static constexpr std::array<Sample, kMb> kMidGrayRow = [] {
    std::array<Sample, kMb> row{};
    row.fill(kMidGray);
    return row;
  }();
  return y0 > 0 ? recon.row(y0 - 1) + x0 : kMidGrayRow.data();
}

}  // namespace

void intra_prediction_mode(const Frame& recon, int x0, int y0,
                           IntraMode mode, Sample* out) {
  switch (mode) {
    case IntraMode::kDc:
      std::memset(out, dc_value(recon, x0, y0), kMb * kMb);
      return;
    case IntraMode::kHorizontal:
      predict_horizontal(recon, x0, y0, out);
      return;
    case IntraMode::kVertical: {
      const Sample* top = vertical_row(recon, x0, y0);
      for (int y = 0; y < kMb; ++y) std::memcpy(out + y * kMb, top, kMb);
      return;
    }
  }
  std::memset(out, kMidGray, kMb * kMb);
}

IntraResult intra_predict(const Sample* src, const Frame& recon, int x0,
                          int y0) {
  const auto sad = simd::active_kernels().sad_16x16;
  // DC and vertical repeat one 16-sample row down the block, so their
  // SADs read that row with stride 0 and neither block is built.  Each
  // later mode passes the best SAD so far as the kernel's early-exit
  // bound: a pruned sum is >= it and loses the strict comparison, so
  // the winner and its (exact) SAD are those of full evaluation.
  std::array<Sample, kMb> dc_row;
  dc_row.fill(dc_value(recon, x0, y0));
  IntraResult best{IntraMode::kDc,
                   sad(src, dc_row.data(), 0, INT64_C(1) << 60)};
  const auto consider = [&](IntraMode mode, std::int64_t s) {
    if (s < best.sad) best = {mode, s};
  };
  std::array<Sample, kMb * kMb> horizontal;
  predict_horizontal(recon, x0, y0, horizontal.data());
  consider(IntraMode::kHorizontal,
           sad(src, horizontal.data(), kMb, best.sad));
  consider(IntraMode::kVertical,
           sad(src, vertical_row(recon, x0, y0), 0, best.sad));
  return best;
}

}  // namespace qosctrl::media
