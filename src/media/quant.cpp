#include "media/quant.h"

#include <array>
#include <cstdint>
#include <cstdlib>

namespace qosctrl::media {

std::int32_t quantize_coeff(std::int32_t c, int qp) {
  QC_EXPECT(qp >= kMinQp && qp <= kMaxQp, "QP out of range");
  const int step = 2 * qp;
  const std::int32_t mag = (std::abs(c) + step / 2) / step;
  return c < 0 ? -mag : mag;
}

std::int32_t dequantize_coeff(std::int32_t level, int qp) {
  QC_EXPECT(qp >= kMinQp && qp <= kMaxQp, "QP out of range");
  return level * 2 * qp;
}

namespace {

// floor(n / qp) == (n * mul) >> shift for every n < 2^31, with
// shift = 31 + ceil(log2 qp) and mul = ceil(2^shift / qp).  Write
// mul * qp = 2^shift + e; then 0 <= e < qp <= 2^(shift - 31), so
// n * mul / 2^shift = n / qp + n * e / (qp * 2^shift) and the error term
// is below 1 / qp, too small to carry n / qp past the next integer.
// mul < 2^32 because 2^(shift - 31) < 2 * qp.
struct Reciprocal {
  std::uint32_t mul;
  int shift;
};

constexpr std::array<Reciprocal, kMaxQp + 1> make_reciprocals() {
  std::array<Reciprocal, kMaxQp + 1> r{};
  for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
    int log2_ceil = 0;
    while ((1 << log2_ceil) < qp) ++log2_ceil;
    const int shift = 31 + log2_ceil;
    const std::uint64_t q = static_cast<std::uint64_t>(qp);
    r[static_cast<std::size_t>(qp)] = {
        static_cast<std::uint32_t>(((std::uint64_t{1} << shift) + q - 1) / q),
        shift};
  }
  return r;
}

constexpr std::array<Reciprocal, kMaxQp + 1> kReciprocals =
    make_reciprocals();

}  // namespace

Coeffs8 quantize_block(const Coeffs8& coeffs, int qp) {
  QC_EXPECT(qp >= kMinQp && qp <= kMaxQp, "QP out of range");
  // quantize_coeff without the division: (|c| + step / 2) / step equals
  // ((|c| + qp) >> 1) / qp, and that numerator is below 2^31 for every
  // int32 c, so the reciprocal is exact.
  const Reciprocal r = kReciprocals[static_cast<std::size_t>(qp)];
  const auto half_step = static_cast<std::uint32_t>(qp);
  Coeffs8 out;
  for (std::size_t i = 0; i < out.size(); ++i) {
    // |c| and the sign restore as (x ^ s) - s with s = 0 or all ones:
    // one multiply per lane when the loop vectorizes.
    const auto c = static_cast<std::uint32_t>(coeffs[i]);
    const std::uint32_t s = 0u - (c >> 31);
    const std::uint64_t n = (((c ^ s) - s) + half_step) >> 1;
    const auto mag = static_cast<std::uint32_t>((n * r.mul) >> r.shift);
    out[i] = static_cast<std::int32_t>((mag ^ s) - s);
  }
  return out;
}

Coeffs8 dequantize_block(const Coeffs8& levels, int qp) {
  Coeffs8 out;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = dequantize_coeff(levels[i], qp);
  }
  return out;
}

int count_nonzero(const Coeffs8& levels) {
  int n = 0;
  for (std::int32_t v : levels) n += (v != 0) ? 1 : 0;
  return n;
}

}  // namespace qosctrl::media
