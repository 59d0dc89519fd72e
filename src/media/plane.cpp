#include "media/plane.h"

#include <algorithm>

namespace qosctrl::media {

Plane::Plane(int width, int height, Sample fill, int tile)
    : width_(width), height_(height) {
  QC_EXPECT(width > 0 && height > 0 && width % tile == 0 &&
                height % tile == 0,
            "dimensions must be positive multiples of 8 (16 for a frame)");
  data_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
               fill);
}

Sample Plane::at_clamped(int x, int y) const {
  return at(std::clamp(x, 0, width_ - 1), std::clamp(y, 0, height_ - 1));
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
  // taps span (8 + fx) x (8 + fy) samples from (bx, by): read in place
  // when that window lies inside the plane, else first gathered through
  // clamped row and column indices.
  const int bx = x0 + ix;
  const int by = y0 + iy;
  const int span_x = kTransformSize + fx;
  const int span_y = kTransformSize + fy;
  constexpr int kPatch = kTransformSize + 1;
  std::array<Sample, kPatch * kPatch> patch;
  const Sample* a;
  int stride;
  if (bx >= 0 && by >= 0 && bx + span_x <= reference.width() &&
      by + span_y <= reference.height()) {
    a = reference.row(by) + bx;
    stride = reference.stride();
  } else {
    int cols[kPatch];
    for (int x = 0; x < span_x; ++x) {
      cols[x] = std::clamp(bx + x, 0, reference.width() - 1);
    }
    for (int y = 0; y < span_y; ++y) {
      const Sample* src =
          reference.row(std::clamp(by + y, 0, reference.height() - 1));
      Sample* row = patch.data() + y * kPatch;
      for (int x = 0; x < span_x; ++x) row[x] = src[cols[x]];
    }
    a = patch.data();
    stride = kPatch;
  }
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
