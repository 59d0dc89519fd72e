// The MPEG-4-like frame encoder: executes the unrolled Figure 2 action
// graph under the direction of a QoS controller, doing the *real* pixel
// math (motion search, DCT, quantization, entropy coding, reconstruction)
// while charging *virtual* cycle costs from the platform cost model.
//
// The separation mirrors the paper's setup: the controller sees only
// elapsed virtual cycles; the pixels determine PSNR, bit counts, and the
// content-coupled component of the cycle costs.
#pragma once

#include <array>
#include <vector>

#include "encoder/body.h"
#include "media/frame.h"
#include "media/intra.h"
#include "media/motion.h"
#include "media/padded_frame.h"
#include "media/yuv.h"
#include "platform/cost_model.h"
#include "qos/controller.h"
#include "rt/parameterized_system.h"
#include "util/bitio.h"

namespace qosctrl::enc {

struct EncoderConfig {
  int width = 176;
  int height = 144;
  /// Intra mode wins when intra_sad + intra_bias < inter_sad.
  std::int64_t intra_bias = 512;
  /// Early-exit SAD threshold for motion search: base + 256 * qp_gain
  /// * QP (<= 0 disables).  The QP term accounts for quantization
  /// error in the reconstructed reference: even a perfect motion match
  /// carries roughly QP/2 of residual per pixel.
  std::int64_t me_early_exit_sad = 512;
  double me_early_exit_qp_gain = 0.5;
  /// ME work calibration.  The work scale handed to the cost model is
  ///   me_work_base + me_work_span * examined / (typical_point_fraction
  ///   * window)
  /// so a search that probes `typical_point_fraction` of its window
  /// costs (base + span) = 1.0x the table average; instant early exits
  /// cost ~base; exhausted windows cost up to base + span / fraction
  /// (clamped at the worst case).
  double typical_point_fraction = 0.5;
  double me_work_base = 0.55;
  double me_work_span = 0.45;
  /// Quality levels at or above this index refine motion to half-pel
  /// accuracy (bilinear); negative disables half-pel entirely.  The
  /// top levels' extra accuracy is part of what their higher
  /// Motion_Estimate cost in Figure 5 buys.
  int half_pel_min_level = 6;
  /// Compress work calibration: bits per macroblock that cost exactly
  /// the table's average time.
  double typical_compress_bits = 560.0;
};

/// Per-frame encoding outcome.
struct FrameStats {
  rt::Cycles encode_cycles = 0;  ///< virtual cycles spent on actions
  /// encode_cycles attributed per EncodePhase (motion / dct_quant /
  /// reconstruct / entropy); sums to encode_cycles.
  std::array<rt::Cycles, kNumEncodePhases> phase_cycles{};
  std::int64_t bits = 0;         ///< compressed size of the frame
  double psnr = 0.0;             ///< PSNR(input, reconstruction), dB
  double ssim = 0.0;             ///< SSIM(input, reconstruction)
  int deadline_misses = 0;       ///< actions finishing past D_theta
  double mean_quality = 0.0;     ///< mean ME quality level over MBs
  rt::QualityLevel min_quality = 0;
  rt::QualityLevel max_quality = 0;
  /// Sum of |q(mb) - q(mb-1)| over consecutive macroblocks' ME
  /// decisions — the smoothness metric of the Section 4 extension.
  int quality_change_sum = 0;
  int intra_macroblocks = 0;
  int qp = 0;                    ///< quantizer used for this frame
};

/// Encodes frames one at a time, keeping the previous reconstruction as
/// the motion-compensation reference.
class FrameEncoder {
 public:
  FrameEncoder(const EncoderConfig& config, platform::CostModel cost_model);

  /// Encodes `input` (4:2:0) at quantizer `qp`, consulting `controller`
  /// before every action.  `sys` supplies deadlines for miss
  /// accounting; `t0` is the elapsed time at cycle start (a late start
  /// shrinks the budget, which is how the pipeline models buffer
  /// occupancy).
  FrameStats encode_frame(const media::YuvFrame& input,
                          qos::Controller& controller,
                          const rt::ParameterizedSystem& sys, int qp,
                          rt::Cycles t0 = 0);

  /// Reconstruction of the most recently encoded frame (what a decoder
  /// would display).
  const media::YuvFrame& reconstructed() const { return recon_; }
  bool has_reference() const { return has_reference_; }

  /// Drops the temporal reference (e.g. after a seek); the next frame
  /// is forced intra.
  void reset_reference() { has_reference_ = false; }

  /// Complete bitstream of the most recently encoded frame (header +
  /// all macroblocks, byte-aligned).  Decodable by enc::decode_frame;
  /// the decoder's output is bit-exact with reconstructed().
  const std::vector<std::uint8_t>& bitstream() const { return bitstream_; }

  const EncoderConfig& config() const { return config_; }

 private:
  /// Per-macroblock decisions threaded through one macroblock's
  /// actions.  Grab resets exactly these.
  struct MbState {
    int mb = -1;
    int x0 = 0, y0 = 0;
    media::MotionResult motion;
    bool motion_valid = false;
    bool use_intra = true;
    media::IntraMode intra_mode = media::IntraMode::kDc;
    std::int64_t bits = 0;
    int nonzero = 0;
  };

  /// The macroblock workspace, one per encode_frame call: the decisions
  /// plus the pixel and coefficient arrays every action writes in
  /// place.  Each array is written in full by its owning action before
  /// any action reads it, so Grab leaves them as they are.  Blocks are
  /// indexed in bitstream order: four 8x8 luma blocks in raster order,
  /// then Cb and Cr.
  struct MbContext : MbState {
    std::array<media::Sample, 256> source;      ///< Grab
    std::array<std::array<media::Sample, 64>, 2> source_c;
    std::array<media::Sample, 256> prediction;  ///< Intra_Predict
    std::array<std::array<media::Sample, 64>, 2> prediction_c;
    std::array<media::Block8, 6> residual;      ///< Intra_Predict
    /// DCT writes coefficients; Quantize turns them into levels.
    std::array<media::Coeffs8, 6> levels;
  };

  /// Runs the real computation of one action; returns the content-
  /// coupled work scale for the virtual cost model.
  double run_action(const UnrolledAction& ua, std::size_t quality_index,
                    int qp, const media::YuvFrame& input, MbContext& ctx);

  EncoderConfig config_;
  platform::CostModel cost_model_;
  media::YuvFrame recon_;
  media::YuvFrame reference_;
  /// Border-extended copy of reference_.y, rebuilt once per frame so
  /// every motion-search candidate and compensation — border
  /// macroblocks included — runs the span kernels with no per-pixel
  /// clamping.
  media::PaddedFrame padded_reference_;
  bool has_reference_ = false;
  util::BitWriter frame_writer_;
  std::vector<std::uint8_t> bitstream_;
};

}  // namespace qosctrl::enc
