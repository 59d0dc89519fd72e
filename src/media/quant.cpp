#include "media/quant.h"

#include <array>
#include <cstdint>
#include <cstdlib>

#include "media/simd/kernels.h"

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

int quantize_block(Coeffs8& block, int qp) {
  QC_EXPECT(qp >= kMinQp && qp <= kMaxQp, "QP out of range");
  // quantize_coeff without the division: (|c| + step / 2) / step equals
  // ((|c| + qp) >> 1) / qp, and that numerator is below 2^31 for every
  // int32 c, so the reciprocal is exact.
  const Reciprocal r = kReciprocals[static_cast<std::size_t>(qp)];
  return simd::active_kernels().quantize8x8(block.data(), qp, r.mul,
                                            r.shift);
}

}  // namespace qosctrl::media
