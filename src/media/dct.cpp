#include "media/dct.h"

#include "media/simd/kernels.h"

namespace qosctrl::media {

void forward_dct8(const Block8& block, Coeffs8& out) {
  simd::active_kernels().fdct8(block.data(), out.data());
}

}  // namespace qosctrl::media
