#include "media/reconstruct.h"

#include "media/quant.h"
#include "media/simd/kernels.h"

namespace qosctrl::media {

void reconstruct_block8(const Coeffs8& levels, int qp, const Sample* pred,
                        std::ptrdiff_t pred_stride, Sample* dst,
                        std::ptrdiff_t dst_stride) {
  // One QP check per block; the kernel multiplies every level by the
  // step (dequantize_coeff's level * 2 * QP).
  QC_EXPECT(qp >= kMinQp && qp <= kMaxQp, "QP out of range");
  simd::active_kernels().reconstruct8x8(levels.data(), 2 * qp, pred,
                                        pred_stride, dst, dst_stride);
}

}  // namespace qosctrl::media
