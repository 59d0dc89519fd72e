#include "media/frame.h"

namespace qosctrl::media {

std::pair<int, int> Frame::mb_origin(int mb) const {
  QC_EXPECT(mb >= 0 && mb < num_macroblocks(), "macroblock index out of range");
  const int col = mb % mb_cols();
  const int row = mb / mb_cols();
  return {col * kMacroBlockSize, row * kMacroBlockSize};
}

std::array<Sample, 256> read_macroblock(const Frame& frame, int x0, int y0) {
  QC_EXPECT(frame.in_bounds(x0, y0) &&
                frame.in_bounds(x0 + kMacroBlockSize - 1,
                                y0 + kMacroBlockSize - 1),
            "macroblock out of bounds");
  std::array<Sample, 256> out;
  copy_block(frame.row(y0) + x0, frame.stride(), kMacroBlockSize, out.data());
  return out;
}

}  // namespace qosctrl::media
