// Uniform mid-tread quantization of DCT coefficients, MPEG-4 style:
// step = 2 * QP with QP in [1, 31].  Reconstruction is level * step.
#pragma once

#include "media/frame.h"

namespace qosctrl::media {

inline constexpr int kMinQp = 1;
inline constexpr int kMaxQp = 31;

/// Largest |level| the encoder can produce: residuals are differences
/// of 8-bit samples (|r| <= 255), the orthonormal DCT keeps every
/// |coefficient| <= 8 * 255 = 2040 (the fixed-point kernel adds at most
/// 1), and QP 1 halves that.  The decoder rejects larger levels, which
/// also keeps level * 2 * QP far inside int32 and the inverse DCT's
/// |coefficient| <= 65536 domain.
inline constexpr std::int32_t kMaxLevel = 1024;

/// Quantizes one coefficient with quantization parameter `qp`.
std::int32_t quantize_coeff(std::int32_t c, int qp);

/// Reconstructs a coefficient from its quantized level.
std::int32_t dequantize_coeff(std::int32_t level, int qp);

/// Quantizes a block of coefficients into levels in place and returns
/// the number of nonzero levels (the work scale of the inverse path).
/// Dequantization lives in media::reconstruct_block8.
int quantize_block(Coeffs8& block, int qp);

}  // namespace qosctrl::media
