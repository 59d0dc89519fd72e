#include "media/plane.h"

#include <cstring>

namespace qosctrl::media {
namespace {

/// Sets the `n` samples at `p` to `v`, eight at a time: a margin is a
/// few words wide, and a memset call per row side costs more than the
/// stores.
void splat(Sample* p, Sample v, int n) {
  const std::uint64_t word = v * UINT64_C(0x0101010101010101);
  for (; n >= 8; n -= 8, p += 8) std::memcpy(p, &word, 8);
  for (; n > 0; --n) *p++ = v;
}

}  // namespace

Plane::Plane(int width, int height, Sample fill, int pad, int tile)
    : width_(width), height_(height), pad_(pad), stride_(width + 2 * pad) {
  QC_EXPECT(width > 0 && height > 0 && width % tile == 0 &&
                height % tile == 0,
            "dimensions must be positive multiples of 8 (16 for a frame)");
  QC_EXPECT(pad >= 0, "pad must be >= 0");
  origin_ = static_cast<std::ptrdiff_t>(pad) * stride() + pad;
  data_.assign(static_cast<std::size_t>(stride()) *
                   static_cast<std::size_t>(height + 2 * pad),
               fill);
}

void Plane::fill_border() {
  if (pad_ == 0) return;
  for (int y = 0; y < height_; ++y) {
    Sample* r = row(y);
    splat(r - pad_, r[0], pad_);
    splat(r + width_, r[width_ - 1], pad_);
  }
  // The top and bottom margins repeat the first and last rows whole,
  // their side margins included.
  const auto span = static_cast<std::size_t>(stride());
  for (int y = 1; y <= pad_; ++y) {
    std::memcpy(row(-y) - pad_, row(0) - pad_, span);
    std::memcpy(row(height_ - 1 + y) - pad_, row(height_ - 1) - pad_, span);
  }
}

std::array<Sample, 64> chroma_motion_compensate(const Plane& reference,
                                                int x0, int y0, int luma_dx2,
                                                int luma_dy2) {
  // Chroma displacement is half the luma displacement.  luma_dx2 is in
  // half-pel luma units, so the chroma offset in half-pel *chroma*
  // units is luma_dx2 / 2, rounded toward zero and carrying the
  // half-pel remainder.
  const int cdx2 = luma_dx2 / 2 + (luma_dx2 % 2);  // round away-from-zero half
  const int cdy2 = luma_dy2 / 2 + (luma_dy2 % 2);
  const int ix = (cdx2 >= 0) ? cdx2 / 2 : (cdx2 - 1) / 2;
  const int iy = (cdy2 >= 0) ? cdy2 / 2 : (cdy2 - 1) / 2;
  const int fx = cdx2 - 2 * ix;
  const int fy = cdy2 - 2 * iy;
  // Every case is (a + b + c + d + 2) / 4 over the four taps at
  // (0|fx, 0|fy), where a missing fraction repeats a tap —
  // (a + b + a + b + 2) / 4 == (a + b + 1) / 2 and (4a + 2) / 4 == a —
  // so every block runs one branch-free row loop that vectorizes.  The
  // taps span (8 + fx) x (8 + fy) samples from (bx, by), read in place.
  const int bx = x0 + ix;
  const int by = y0 + iy;
  const int pad = reference.pad();
  QC_EXPECT(bx >= -pad && by >= -pad &&
                bx + kTransformSize + fx <= reference.width() + pad &&
                by + kTransformSize + fy <= reference.height() + pad,
            "chroma vector exceeds reference padding");
  const Sample* a = reference.row(by) + bx;
  const int stride = reference.stride();
  const Sample* b = a + fx;
  const Sample* c = a + fy * stride;
  const Sample* d = c + fx;
  std::array<Sample, 64> out;
  Sample* dst = out.data();
  for (int y = 0; y < kTransformSize; ++y) {
    for (int x = 0; x < kTransformSize; ++x) {
      dst[x] = static_cast<Sample>((a[x] + b[x] + c[x] + d[x] + 2) >> 2);
    }
    a += stride;
    b += stride;
    c += stride;
    d += stride;
    dst += kTransformSize;
  }
  return out;
}

std::array<Sample, 64> chroma_dc_prediction(const Plane& recon, int x0,
                                            int y0) {
  int sum = 0;
  int count = 0;
  for (int x = 0; x < kTransformSize; ++x) {
    if (recon.in_bounds(x0 + x, y0 - 1)) {
      sum += recon.at(x0 + x, y0 - 1);
      ++count;
    }
  }
  for (int y = 0; y < kTransformSize; ++y) {
    if (recon.in_bounds(x0 - 1, y0 + y)) {
      sum += recon.at(x0 - 1, y0 + y);
      ++count;
    }
  }
  const Sample dc =
      count > 0 ? static_cast<Sample>((sum + count / 2) / count) : 128;
  std::array<Sample, 64> out;
  out.fill(dc);
  return out;
}

}  // namespace qosctrl::media
