#include "media/frame.h"

#include <algorithm>
#include <cmath>

#include "media/simd/kernels.h"

namespace qosctrl::media {

Frame::Frame(int width, int height, Sample fill)
    : width_(width), height_(height) {
  QC_EXPECT(width > 0 && height > 0, "frame dimensions must be positive");
  QC_EXPECT(width % kMacroBlockSize == 0 && height % kMacroBlockSize == 0,
            "frame dimensions must be multiples of the macroblock size");
  data_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
               fill);
}

Sample Frame::at_clamped(int x, int y) const {
  const int cx = std::clamp(x, 0, width_ - 1);
  const int cy = std::clamp(y, 0, height_ - 1);
  return at(cx, cy);
}

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

std::int64_t frame_sse_i64(const Frame& a, const Frame& b) {
  QC_EXPECT(a.width() == b.width() && a.height() == b.height(),
            "frames must have equal dimensions");
  // Frames are contiguous row-major buffers of width * height samples,
  // a multiple of 256, so the whole plane is one kernel call.
  return simd::active_kernels().sum_sq_diff(a.data().data(),
                                            b.data().data(),
                                            a.data().size());
}

double frame_sse(const Frame& a, const Frame& b) {
  // Exact: a frame's worth of 8-bit squared differences is far below
  // 2^53, so this double is bit-identical with the old double
  // accumulation.
  return static_cast<double>(frame_sse_i64(a, b));
}

double psnr_from_sse(std::int64_t sse, std::int64_t pixels, double cap) {
  QC_EXPECT(pixels > 0, "PSNR needs a non-empty frame");
  if (sse <= 0) return cap;
  const double mse =
      static_cast<double>(sse) / static_cast<double>(pixels);
  return std::min(cap, 10.0 * std::log10(255.0 * 255.0 / mse));
}

double psnr(const Frame& a, const Frame& b, double cap) {
  return psnr_from_sse(frame_sse_i64(a, b),
                       static_cast<std::int64_t>(a.data().size()), cap);
}

}  // namespace qosctrl::media
