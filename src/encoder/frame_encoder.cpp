#include "encoder/frame_encoder.h"

#include <algorithm>

#include "media/dct.h"
#include "media/intra.h"
#include "media/quant.h"
#include "qos/runner.h"
#include "util/check.h"

namespace qosctrl::enc {
namespace {

std::size_t quality_index_of(const rt::ParameterizedSystem& sys,
                             rt::QualityLevel q) {
  const auto& levels = sys.quality_levels();
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (levels[i] == q) return i;
  }
  QC_EXPECT(false, "controller chose a quality level outside Q");
}

/// Intra mode wins when intra_sad + kIntraBias < inter_sad.
constexpr std::int64_t kIntraBias = 512;
/// Early-exit SAD threshold for motion search: kMeEarlyExitSad + 256 *
/// kMeEarlyExitQpGain * QP.  The QP term accounts for quantization error
/// in the reconstructed reference: even a perfect motion match carries
/// roughly QP/2 of residual per pixel.
constexpr std::int64_t kMeEarlyExitSad = 512;
constexpr double kMeEarlyExitQpGain = 0.5;
/// Share of its window a typical motion search probes; a search that
/// probes this share costs the table average (EncoderConfig::me_work_*).
constexpr double kTypicalPointFraction = 0.5;
/// Quality levels at or above this index refine motion to half-pel
/// accuracy (bilinear).  The top levels' extra accuracy is part of what
/// their higher Motion_Estimate cost in Figure 5 buys.
constexpr int kHalfPelMinLevel = 6;

constexpr int kMb = media::kMacroBlockSize;
constexpr int kTb = media::kTransformSize;

/// Offset of luma block `b` (0..3, raster order) in a 16-stride
/// macroblock buffer.
constexpr int luma_block_offset(int b) {
  return (b / 2) * kTb * kMb + (b % 2) * kTb;
}

/// Residual formation: out = src - pred over the 8x8 blocks at `src`
/// and `pred` (shared row stride).  Row loops over contiguous spans, so
/// gcc vectorizes the widening subtraction at -O3.
void subtract_block8(const media::Sample* src, const media::Sample* pred,
                     int stride, media::Block8& out) {
  media::Residual* r = out.data();
  for (int y = 0; y < kTb; ++y) {
    for (int x = 0; x < kTb; ++x) {
      r[x] = static_cast<media::Residual>(src[x] - pred[x]);
    }
    src += stride;
    pred += stride;
    r += kTb;
  }
}

}  // namespace

FrameEncoder::FrameEncoder(const EncoderConfig& config,
                           platform::CostModel cost_model)
    : config_(config),
      cost_model_(std::move(cost_model)),
      recon_(config.width, config.height) {
  QC_EXPECT(config.width % media::kMacroBlockSize == 0 &&
                config.height % media::kMacroBlockSize == 0,
            "frame dimensions must be multiples of 16");
}

FrameStats FrameEncoder::encode_frame(const media::YuvFrame& input,
                                      qos::Controller& controller,
                                      const rt::ParameterizedSystem& sys,
                                      int qp, rt::Cycles t0,
                                      FrameSyntax* syntax) {
  QC_EXPECT(input.width() == config_.width &&
                input.height() == config_.height,
            "input frame has wrong dimensions");
  QC_EXPECT(qp >= media::kMinQp && qp <= media::kMaxQp, "QP out of range");

  // The previous reconstruction becomes the reference, and this frame
  // is rebuilt into a fresh picture.  Between frames the encoder holds
  // only its reconstruction: a farm keeps every session of a processor
  // for the processor's whole run.
  if (has_reference_) {
    reference_ = std::move(recon_);
    recon_ = media::YuvFrame(config_.width, config_.height);
  }

  const FrameHeader header{input.y.mb_cols(), input.y.mb_rows(), qp};
  MbContext ctx{};
  put_frame_header(ctx.frame_bits, header);
  if (syntax != nullptr) {
    syntax->header = header;
    // Allocates on a buffer's first frame only: the geometry is fixed.
    syntax->macroblocks.resize(
        static_cast<std::size_t>(header.mb_cols * header.mb_rows));
    ctx.syntax = syntax;
  }

  FrameStats stats;
  stats.qp = qp;
  double quality_sum = 0.0;
  int quality_count = 0;
  rt::QualityLevel last_me_quality = sys.qmin();
  stats.min_quality = sys.qmax();
  stats.max_quality = sys.qmin();

  const qos::CycleTotals totals = qos::run_cycle(
      sys, controller,
      [&](rt::ActionId action, rt::QualityLevel quality) {
        const UnrolledAction ua = decode_unrolled(action);
        const std::size_t qi = quality_index_of(sys, quality);
        const double work = run_action(ua, qi, qp, input, ctx);
        return cost_model_.sample(id(ua.action), qi, work);
      },
      [&](const qos::StepTrace& step) {
        const BodyAction action = decode_unrolled(step.action).action;
        stats.phase_cycles[static_cast<std::size_t>(phase_of(action))] +=
            step.cost;
        if (action == BodyAction::kMotionEstimate) {
          if (quality_count > 0) {
            stats.quality_change_sum +=
                std::abs(step.quality - last_me_quality);
          }
          last_me_quality = step.quality;
          quality_sum += static_cast<double>(step.quality);
          ++quality_count;
          stats.min_quality = std::min(stats.min_quality, step.quality);
          stats.max_quality = std::max(stats.max_quality, step.quality);
        }
        if (action == BodyAction::kReconstruct && ctx.header.intra) {
          ++stats.intra_macroblocks;
        }
      },
      t0);
  stats.encode_cycles = totals.total_cycles;
  stats.deadline_misses = totals.deadline_misses;
  stats.bits = ctx.frame_bits.bit_count();
  // One O(perimeter) border fill replaces the per-pixel clamp branches
  // in every SAD and motion-compensation call of the next frame.
  recon_.fill_borders();
  reference_ = media::YuvFrame();
  has_reference_ = true;
  has_reconstruction_ = true;
  stats.mean_quality =
      quality_count > 0 ? quality_sum / quality_count : 0.0;
  return stats;
}

double FrameEncoder::run_action(const UnrolledAction& ua,
                                std::size_t quality_index, int qp,
                                const media::YuvFrame& input,
                                MbContext& ctx) {
  switch (ua.action) {
    case BodyAction::kGrabMacroBlock: {
      static_cast<MbState&>(ctx) = MbState{};
      ctx.mb = ua.macroblock;
      const auto [x0, y0] = input.y.mb_origin(ua.macroblock);
      ctx.x0 = x0;
      ctx.y0 = y0;
      ctx.source = media::read_macroblock(input.y, x0, y0);
      for (int c = 0; c < 2; ++c) {
        const media::Plane& plane = (c == 0) ? input.cb : input.cr;
        media::copy_block(plane.row(y0 / 2) + x0 / 2, plane.stride(), kTb,
                          ctx.source_c[static_cast<std::size_t>(c)].data());
      }
      return 1.0;
    }

    case BodyAction::kMotionEstimate: {
      QC_ENSURE(ctx.mb == ua.macroblock, "action order broke MB context");
      const int radius = media::search_radius_for_level(quality_index);
      if (!has_reference_) {
        ctx.motion_valid = false;
        return 0.1;  // no reference: ME returns immediately
      }
      media::MotionConfig cfg;
      cfg.radius = radius;
      cfg.half_pel = static_cast<int>(quality_index) >= kHalfPelMinLevel;
      cfg.early_exit_sad =
          kMeEarlyExitSad +
          static_cast<std::int64_t>(256.0 * kMeEarlyExitQpGain * qp);
      ctx.motion = media::estimate_motion(ctx.source.data(), reference_.y,
                                          ctx.x0, ctx.y0, cfg);
      ctx.motion_valid = true;
      const double typical =
          std::max(1.0, kTypicalPointFraction *
                            static_cast<double>(ctx.motion.points_total));
      return config_.me_work_base +
             config_.me_work_span *
                 static_cast<double>(ctx.motion.points_examined) / typical;
    }

    case BodyAction::kIntraPredict: {
      // Mode decision + residual formation.  The spatial mode decision
      // always runs (the action has constant cost in Figure 5) on the
      // source Grab read; only the winning prediction is written.
      const media::IntraResult intra = media::intra_predict(
          ctx.source.data(), recon_.y, ctx.x0, ctx.y0);
      const bool use_intra = !ctx.motion_valid ||
                             intra.sad + kIntraBias < ctx.motion.sad;
      ctx.header = use_intra ? MbHeader{true, intra.mode, 0, 0}
                             : MbHeader{false, media::IntraMode::kDc,
                                        ctx.motion.dx2, ctx.motion.dy2};
      predict_macroblock(ctx.header, ctx.x0, ctx.y0, recon_, &reference_,
                         &ctx.prediction);
      for (int b = 0; b < 4; ++b) {
        const int off = luma_block_offset(b);
        subtract_block8(ctx.source.data() + off,
                        ctx.prediction.luma.data() + off, kMb,
                        ctx.residual[static_cast<std::size_t>(b)]);
      }
      for (std::size_t c = 0; c < 2; ++c) {
        subtract_block8(ctx.source_c[c].data(),
                        ctx.prediction.chroma[c].data(), kTb,
                        ctx.residual[4 + c]);
      }
      return 1.0;
    }

    case BodyAction::kDct: {
      for (std::size_t b = 0; b < 6; ++b) {
        media::forward_dct8(ctx.residual[b], ctx.levels[b]);
      }
      return 1.0;
    }

    case BodyAction::kQuantize: {
      ctx.nonzero = 0;
      for (media::Coeffs8& block : ctx.levels) {
        ctx.nonzero += media::quantize_block(block, qp);
      }
      return 1.0;
    }

    case BodyAction::kCompress: {
      ctx.bits = put_macroblock(ctx.frame_bits, ctx.header, ctx.levels);
      if (ctx.syntax != nullptr) {
        MbSyntax& kept =
            ctx.syntax->macroblocks[static_cast<std::size_t>(ctx.mb)];
        kept.header = ctx.header;
        kept.levels = ctx.levels;
      }
      return std::max(
          0.2, static_cast<double>(ctx.bits) / config_.typical_compress_bits);
    }

    // Inverse_Quantize and Inverse_DCT charge their Figure 5 costs; the
    // pixel work of both runs at Reconstruct, fused per block in
    // reconstruct_macroblock (the routine the decoder runs), because
    // Compress may still read the levels when they start.
    case BodyAction::kInverseQuantize:
      return 1.0;

    case BodyAction::kInverseDct:
      // Sparse blocks are cheaper to invert; couple the cost mildly.
      return 0.5 + static_cast<double>(ctx.nonzero) / 96.0;

    case BodyAction::kReconstruct:
      reconstruct_macroblock(ctx.levels, qp, ctx.prediction, ctx.x0, ctx.y0,
                             &recon_);
      return 1.0;
  }
  QC_EXPECT(false, "unknown body action");
}

}  // namespace qosctrl::enc
