// Runtime-dispatched SIMD media kernels.
//
// The encoder's hot pixel loops — macroblock SAD, half-pel bilinear
// interpolation, the fixed-point LLM DCT butterflies, quantization,
// the fused inverse path (dequantize, IDCT, add, saturate), and the
// PSNR / SSIM distortion accumulators — are reached through a table
// of function pointers selected once at startup from CPUID: SSE2 is
// the x86-64 baseline, AVX2 is used when the CPU reports it, and
// AArch64 builds get `vabal` NEON SAD kernels (the remaining NEON
// slots alias the scalar reference kernels).  Every entry is pinned
// bit-exact against the scalar kernel over the encoder's input domain
// (tests/media/simd_kernel_equivalence_test.cpp), so the backend in
// use is unobservable except through speed.
//
// Selection order (first match wins):
//  1. -DQOSCTRL_FORCE_SCALAR=ON at configure time compiles the
//     dispatcher to answer scalar unconditionally;
//  2. the QOSCTRL_FORCE_SCALAR environment variable (any value other
//     than "", "0", "off", "false") forces scalar at startup;
//  3. the QOSCTRL_SIMD environment variable ("scalar", "sse2",
//     "avx2") requests a specific backend, honored when the CPU
//     supports it;
//  4. otherwise the best CPUID-supported backend is used.
//
// Tests switch backends in-process with set_backend_for_testing so one
// binary can compare scalar, SSE2, and AVX2 results directly.
#pragma once

#include <cstddef>
#include <cstdint>

namespace qosctrl::media::simd {

enum class Backend {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,  ///< vabal SAD kernels; other slots alias scalar
};

/// The kernel function-pointer table.  All pointers are non-null in
/// every table (unaccelerated entries alias the scalar kernel).
struct KernelTable {
  const char* name;  ///< human-readable backend name
  Backend backend;

  /// SAD between a contiguous 16x16 block `cur` (row stride 16) and
  /// the 16x16 block at `ref` (row stride `ref_stride`; 0 repeats one
  /// row, as the intra DC and vertical modes do).  Early-exit
  /// contract shared by all backends: the exact SAD is returned when
  /// it is < `best`; otherwise a partial sum (checked after every 4
  /// rows, identical across backends) >= `best` and <= the exact SAD
  /// may be returned.
  std::int64_t (*sad_16x16)(const std::uint8_t* cur, const std::uint8_t* ref,
                            std::ptrdiff_t ref_stride, std::int64_t best);

  /// Batched SAD of `cur` against four candidate blocks ref[0..3]
  /// (shared row stride).  Early-exit contract mirroring sad_16x16:
  /// out[k] is exact when < `best`; after each 4-row block, if every
  /// partial sum has reached `best`, the call may stop and return the
  /// partials (identical across backends) — no candidate can win, so
  /// callers comparing against `best` observe no difference.
  void (*sad_16x16_x4)(const std::uint8_t* cur,
                       const std::uint8_t* const ref[4],
                       std::ptrdiff_t ref_stride, std::int64_t best,
                       std::int64_t out[4]);

  /// Half-pel bilinear interpolation of the 16x16 block anchored at
  /// `src`: dst[y][x] derives from src pixels at (x + fx, y + fy)
  /// half offsets, (fx, fy) in {0,1}^2 \ {(0,0)}, with the standard
  /// rounding ((a+b+1)/2 axis-aligned, (a+b+c+d+2)/4 diagonal).
  /// Reads up to 17x17 source pixels.
  void (*halfpel_16x16)(const std::uint8_t* src, std::ptrdiff_t stride,
                        int fx, int fy, std::uint8_t* dst);

  /// Fixed-point LLM forward / inverse 8x8 DCT on row-major blocks.
  /// Bit-exact with the scalar kernel for |in[i]| <= 1023 (forward)
  /// and |in[i]| <= 65536 (inverse) — comfortably beyond the
  /// encoder's 9-bit residuals and their transform coefficients.
  void (*fdct8)(const std::int16_t* in, std::int32_t* out);
  void (*idct8)(const std::int32_t* in, std::int16_t* out);

  /// Quantizes an 8x8 coefficient block in place and returns its
  /// number of nonzero levels: level = sign(c) * ((((|c| + qp) >> 1) *
  /// mul) >> shift), where (mul, shift) is qp's exact reciprocal (see
  /// media/quant.cpp), so every backend equals the division formula
  /// for every int32 coefficient.
  int (*quantize8x8)(std::int32_t* block, int qp, std::uint32_t mul,
                     int shift);

  /// The inverse path of one 8x8 block in one call: dequantizes
  /// `levels` (coefficient = level * step), inverse-transforms them
  /// exactly as idct8 does (int16-saturated), adds the 8x8 prediction
  /// at `pred` (row stride `pred_stride`), saturates to [0, 255] and
  /// stores the block at `dst` (row stride `dst_stride`).  Bit-exact
  /// across backends while every |level * step| <= 65536 (idct8's
  /// domain).
  void (*reconstruct8x8)(const std::int32_t* levels, std::int32_t step,
                         const std::uint8_t* pred,
                         std::ptrdiff_t pred_stride, std::uint8_t* dst,
                         std::ptrdiff_t dst_stride);

  /// Sum of squared differences between two contiguous sample spans of
  /// `n` pixels, `n` a positive multiple of 16 — the PSNR accumulator
  /// (quality::frame_sse feeds whole luma planes through one call).
  /// Integer accumulation: the result is exact, so every backend
  /// returns the identical sum.
  std::int64_t (*sum_sq_diff)(const std::uint8_t* a, const std::uint8_t* b,
                              std::size_t n);

  /// Raw moments of one co-located 8x8 block pair — the per-window
  /// input of the fixed-point SSIM (src/quality/distortion.cpp):
  /// out = {sum a, sum b, sum a*a, sum b*b, sum a*b}.  All integer, so
  /// the downstream SSIM arithmetic is backend-independent by
  /// construction.
  void (*ssim_stats_8x8)(const std::uint8_t* a, std::ptrdiff_t a_stride,
                         const std::uint8_t* b, std::ptrdiff_t b_stride,
                         std::int64_t out[5]);
};

/// The table selected at startup (rules above).  Thread-safe; the
/// selection is made once on first use.
const KernelTable& active_kernels();
Backend active_backend();

/// True when `b`'s kernels can run on this machine (kScalar always;
/// kSse2/kAvx2 per CPUID and compiler support; kNeon on AArch64).
bool backend_supported(Backend b);

/// The best backend this machine supports, ignoring all overrides.
Backend detected_backend();

/// The table for a specific backend; requires backend_supported(b).
const KernelTable& kernels_for(Backend b);

/// Forces the active table (for tests and benchmarks); requires
/// backend_supported(b).  Returns the previously active backend.
/// Not thread-safe against concurrent kernel use — call only from
/// single-threaded test setup.
Backend set_backend_for_testing(Backend b);

/// Restores, on destruction, the backend that was active at
/// construction — so a test that switches backends and returns early
/// on a failed assertion does not leave its choice to later tests.
class ScopedBackendRestore {
 public:
  ScopedBackendRestore() : saved_(active_backend()) {}
  ~ScopedBackendRestore() { set_backend_for_testing(saved_); }
  ScopedBackendRestore(const ScopedBackendRestore&) = delete;
  ScopedBackendRestore& operator=(const ScopedBackendRestore&) = delete;

 private:
  Backend saved_;
};

// ---------------------------------------------------------------------------
// Pure selection logic, exposed for unit tests.

const char* backend_name(Backend b);

/// Parses "scalar" / "sse2" / "avx2" / "neon" (case-insensitive);
/// anything else (including nullptr) yields `fallback`.
Backend parse_backend(const char* s, Backend fallback);

/// True for any value other than nullptr, "", "0", "off", "false"
/// (case-insensitive) — the QOSCTRL_FORCE_SCALAR convention.
bool env_flag_set(const char* value);

/// Applies the override chain to the CPUID-detected backend:
/// compiled force-scalar, then the QOSCTRL_FORCE_SCALAR env value,
/// then the QOSCTRL_SIMD env request (honored only when supported —
/// the caller's `supported` predicate decides).
Backend resolve_backend(Backend detected, bool compiled_force_scalar,
                        const char* force_scalar_env, const char* simd_env,
                        bool (*supported)(Backend));

}  // namespace qosctrl::media::simd
