#include "media/dct.h"

#include <cmath>

#include "media/simd/kernels.h"

namespace qosctrl::media {
namespace {

constexpr int kN = kTransformSize;

// ---------------------------------------------------------------------------
// Double-precision reference basis.

/// basis[u][x] = c(u) * cos((2x+1) u pi / 16), c(0)=sqrt(1/8), else sqrt(2/8).
struct Basis {
  double m[kN][kN];
  Basis() {
    const double pi = 3.14159265358979323846;
    for (int u = 0; u < kN; ++u) {
      const double c = (u == 0) ? std::sqrt(1.0 / kN) : std::sqrt(2.0 / kN);
      for (int x = 0; x < kN; ++x) {
        m[u][x] = c * std::cos((2 * x + 1) * u * pi / (2.0 * kN));
      }
    }
  }
};

const Basis& basis() {
  static const Basis b;
  return b;
}

}  // namespace

void forward_dct8(const Block8& block, Coeffs8& out) {
  simd::active_kernels().fdct8(block.data(), out.data());
}

void inverse_dct8(const Coeffs8& coeffs, Block8& out) {
  simd::active_kernels().idct8(coeffs.data(), out.data());
}

Coeffs8 forward_dct8_ref(const Block8& block) {
  const auto& B = basis().m;
  double tmp[kN][kN];
  // Rows.
  for (int y = 0; y < kN; ++y) {
    for (int u = 0; u < kN; ++u) {
      double acc = 0.0;
      for (int x = 0; x < kN; ++x) {
        acc += B[u][x] * static_cast<double>(block[static_cast<std::size_t>(y * kN + x)]);
      }
      tmp[y][u] = acc;
    }
  }
  // Columns.
  Coeffs8 out;
  for (int v = 0; v < kN; ++v) {
    for (int u = 0; u < kN; ++u) {
      double acc = 0.0;
      for (int y = 0; y < kN; ++y) acc += B[v][y] * tmp[y][u];
      out[static_cast<std::size_t>(v * kN + u)] =
          static_cast<std::int32_t>(std::llround(acc));
    }
  }
  return out;
}

Block8 inverse_dct8_ref(const Coeffs8& coeffs) {
  const auto& B = basis().m;
  double tmp[kN][kN];
  // Columns (inverse).
  for (int u = 0; u < kN; ++u) {
    for (int y = 0; y < kN; ++y) {
      double acc = 0.0;
      for (int v = 0; v < kN; ++v) {
        acc += B[v][y] * static_cast<double>(coeffs[static_cast<std::size_t>(v * kN + u)]);
      }
      tmp[y][u] = acc;
    }
  }
  // Rows (inverse).
  Block8 out;
  for (int y = 0; y < kN; ++y) {
    for (int x = 0; x < kN; ++x) {
      double acc = 0.0;
      for (int u = 0; u < kN; ++u) acc += B[u][x] * tmp[y][u];
      const long long v = std::llround(acc);
      out[static_cast<std::size_t>(y * kN + x)] = static_cast<Residual>(
          std::max<long long>(-32768, std::min<long long>(32767, v)));
    }
  }
  return out;
}

}  // namespace qosctrl::media
