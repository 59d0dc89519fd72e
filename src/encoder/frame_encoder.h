// The MPEG-4-like frame encoder: executes the unrolled Figure 2 action
// graph under the direction of a QoS controller, doing the *real* pixel
// math (motion search, DCT, quantization, entropy coding, reconstruction)
// while charging *virtual* cycle costs from the platform cost model.
//
// The separation mirrors the paper's setup: the controller sees only
// elapsed virtual cycles; the pixels determine bit counts, the
// reconstruction, and the content-coupled component of the cycle costs.
// The encoder does not score its output: pipe::StreamSession scores
// what the viewer is shown (quality/distortion.h).
//
// Compress writes no bytes.  It counts each macroblock's bits, which is
// all the rate controller and the cost model read, and on request keeps
// the frame's syntax in the caller's buffer; enc::rebuild_frame builds
// a decoder's picture from that syntax, and enc::pack_frame
// (macroblock.h) packs it into the bitstream enc::decode_frame reads.
#pragma once

#include <array>

#include "encoder/body.h"
#include "encoder/macroblock.h"
#include "media/frame.h"
#include "media/motion.h"
#include "media/yuv.h"
#include "platform/cost_model.h"
#include "qos/controller.h"
#include "rt/parameterized_system.h"
#include "util/bitio.h"

namespace qosctrl::enc {

struct EncoderConfig {
  int width = 176;
  int height = 144;
  /// ME work calibration.  The work scale handed to the cost model is
  ///   me_work_base + me_work_span * examined / (0.5 * window)
  /// so a search that probes half its window costs (base + span) =
  /// 1.0x the table average; instant early exits cost ~base; exhausted
  /// windows cost up to base + 2 * span (clamped at the worst case).
  double me_work_base = 0.55;
  double me_work_span = 0.45;
  /// Compress work calibration: bits per macroblock that cost exactly
  /// the table's average time.
  double typical_compress_bits = 560.0;
};

/// Per-frame encoding outcome, unscored: PSNR/SSIM of what the viewer
/// is shown are the session's (pipe::FrameRecord).
struct FrameStats {
  rt::Cycles encode_cycles = 0;  ///< virtual cycles spent on actions
  /// encode_cycles attributed per EncodePhase (motion / dct_quant /
  /// reconstruct / entropy); sums to encode_cycles.
  std::array<rt::Cycles, kNumEncodePhases> phase_cycles{};
  std::int64_t bits = 0;         ///< compressed size of the frame
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

  /// Encodes `input` (4:2:0) at quantizer `qp` as one qos::run_cycle of
  /// `controller` over the frame's actions.  `sys` supplies deadlines
  /// for miss accounting; `t0` is the elapsed time at cycle start (a
  /// late start shrinks the budget, which is how the pipeline models
  /// buffer occupancy).  Compress writes no bytes: it counts the
  /// frame's bits (FrameStats::bits), and with a non-null `syntax` also
  /// keeps the frame's header and every macroblock's header and levels
  /// there, for enc::rebuild_frame and enc::pack_frame.  The caller owns
  /// `syntax` and may reuse it from frame to frame: its buffers are
  /// allocated once per geometry.
  FrameStats encode_frame(const media::YuvFrame& input,
                          qos::Controller& controller,
                          const rt::ParameterizedSystem& sys, int qp,
                          rt::Cycles t0 = 0, FrameSyntax* syntax = nullptr);

  /// Reconstruction of the most recently encoded frame (what a decoder
  /// would display, and what the session scores the frame against).
  const media::YuvFrame& reconstructed() const { return recon_; }
  /// True once a frame has been encoded, so reconstructed() holds one;
  /// reset_reference() does not clear it.
  bool has_reconstruction() const { return has_reconstruction_; }
  bool has_reference() const { return has_reference_; }

  /// Drops the temporal reference (e.g. after a seek); the next frame
  /// is forced intra.
  void reset_reference() { has_reference_ = false; }

  const EncoderConfig& config() const { return config_; }

 private:
  /// Per-macroblock decisions threaded through one macroblock's
  /// actions.  Grab resets exactly these.
  struct MbState {
    int mb = -1;
    int x0 = 0, y0 = 0;
    media::MotionResult motion;
    bool motion_valid = false;
    MbHeader header;  ///< Intra_Predict's decision, as Compress writes it
    std::int64_t bits = 0;
    int nonzero = 0;
  };

  /// The macroblock workspace, one per encode_frame call: the decisions
  /// plus the pixel and coefficient arrays every action writes in
  /// place, and the frame's output so far.  Each array is written in
  /// full by its owning action before any action reads it, so Grab
  /// leaves them as they are.  Blocks are indexed in bitstream order:
  /// four 8x8 luma blocks in raster order, then Cb and Cr.
  struct MbContext : MbState {
    /// What Compress writes: the frame's bit count, and the caller's
    /// syntax buffer (null: none).
    util::BitCounter frame_bits;
    FrameSyntax* syntax = nullptr;
    std::array<media::Sample, 256> source;      ///< Grab
    std::array<std::array<media::Sample, 64>, 2> source_c;
    MbPrediction prediction;                    ///< Intra_Predict
    std::array<media::Block8, 6> residual;      ///< Intra_Predict
    /// DCT writes coefficients; Quantize turns them into levels.
    MbLevels levels;
  };

  /// Runs the real computation of one action; returns the content-
  /// coupled work scale for the virtual cost model.
  double run_action(const UnrolledAction& ua, std::size_t quality_index,
                    int qp, const media::YuvFrame& input, MbContext& ctx);

  EncoderConfig config_;
  platform::CostModel cost_model_;
  /// Reference pictures (yuv.h): the frame being reconstructed, and,
  /// during encode_frame, the previous reconstruction, whose margins
  /// motion search reads.
  media::YuvFrame recon_;
  media::YuvFrame reference_;
  bool has_reference_ = false;
  bool has_reconstruction_ = false;
};

}  // namespace qosctrl::enc
