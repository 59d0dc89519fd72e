#include "media/dct.h"

#include "media/simd/kernels.h"

namespace qosctrl::media {

void forward_dct8(const Block8& block, Coeffs8& out) {
  simd::active_kernels().fdct8(block.data(), out.data());
}

void inverse_dct8(const Coeffs8& coeffs, Block8& out) {
  simd::active_kernels().idct8(coeffs.data(), out.data());
}

}  // namespace qosctrl::media
