#include "encoder/frame_encoder.h"

#include <algorithm>

#include "media/dct.h"
#include "media/entropy.h"
#include "media/intra.h"
#include "media/motion.h"
#include "media/plane.h"
#include "media/quant.h"
#include "media/reconstruct.h"
#include "quality/distortion.h"
#include "util/bitio.h"
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
      recon_(config.width, config.height),
      reference_(config.width, config.height) {
  QC_EXPECT(config.width % media::kMacroBlockSize == 0 &&
                config.height % media::kMacroBlockSize == 0,
            "frame dimensions must be multiples of 16");
}

FrameStats FrameEncoder::encode_frame(const media::YuvFrame& input,
                                      qos::Controller& controller,
                                      const rt::ParameterizedSystem& sys,
                                      int qp, rt::Cycles t0) {
  QC_EXPECT(input.width() == config_.width &&
                input.height() == config_.height,
            "input frame has wrong dimensions");
  QC_EXPECT(qp >= media::kMinQp && qp <= media::kMaxQp, "QP out of range");

  std::swap(reference_, recon_);
  if (has_reference_) {
    // One O(perimeter) pad replaces the per-pixel clamp branches in
    // every SAD and motion-compensation call of the frame.
    padded_reference_.update_from(reference_.y);
  }
  controller.start_cycle();

  // Frame header: geometry and quantizer (what enc::decode_frame needs
  // besides the reference frame).
  frame_writer_ = util::BitWriter();
  media::put_ue(frame_writer_,
                static_cast<std::uint32_t>(input.y.mb_cols()));
  media::put_ue(frame_writer_,
                static_cast<std::uint32_t>(input.y.mb_rows()));
  media::put_ue(frame_writer_, static_cast<std::uint32_t>(qp));

  FrameStats stats;
  stats.qp = qp;
  rt::Cycles t = t0;
  MbContext ctx{};
  double quality_sum = 0.0;
  int quality_count = 0;
  rt::QualityLevel last_me_quality = sys.qmin();
  stats.min_quality = sys.qmax();
  stats.max_quality = sys.qmin();

  while (!controller.done()) {
    const qos::Decision d = controller.next(t);
    const UnrolledAction ua = decode_unrolled(d.action);
    const std::size_t qi = quality_index_of(sys, d.quality);

    const double work = run_action(ua, qi, qp, input, ctx);
    const rt::Cycles cost = cost_model_.sample(id(ua.action), qi, work);
    controller.observe(cost);
    t += cost;
    stats.encode_cycles += cost;
    stats.phase_cycles[static_cast<std::size_t>(phase_of(ua.action))] += cost;

    const rt::Cycles deadline = sys.deadline(d.quality, d.action);
    if (!rt::is_no_deadline(deadline) && t > deadline) {
      ++stats.deadline_misses;
    }
    if (ua.action == BodyAction::kMotionEstimate) {
      if (quality_count > 0) {
        stats.quality_change_sum +=
            std::abs(d.quality - last_me_quality);
      }
      last_me_quality = d.quality;
      quality_sum += static_cast<double>(d.quality);
      ++quality_count;
      stats.min_quality = std::min(stats.min_quality, d.quality);
      stats.max_quality = std::max(stats.max_quality, d.quality);
    }
    if (ua.action == BodyAction::kReconstruct && ctx.use_intra) {
      ++stats.intra_macroblocks;
    }
  }
  stats.bits = frame_writer_.bit_count();
  bitstream_ = frame_writer_.finish();
  has_reference_ = true;
  stats.mean_quality =
      quality_count > 0 ? quality_sum / quality_count : 0.0;
  // One block-moment pass yields both metrics (the PSNR route is
  // pinned bit-identical to media::psnr in tests/quality/).
  const quality::FrameDistortion distortion =
      quality::measure(input.y, recon_.y);
  stats.psnr = distortion.psnr;
  stats.ssim = distortion.ssim;
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
      cfg.half_pel =
          config_.half_pel_min_level >= 0 &&
          static_cast<int>(quality_index) >= config_.half_pel_min_level;
      cfg.early_exit_sad =
          config_.me_early_exit_sad <= 0
              ? 0
              : config_.me_early_exit_sad +
                    static_cast<std::int64_t>(256.0 *
                                              config_.me_early_exit_qp_gain *
                                              qp);
      ctx.motion = media::estimate_motion(ctx.source.data(), padded_reference_,
                                          ctx.x0, ctx.y0, cfg);
      ctx.motion_valid = true;
      const double typical =
          std::max(1.0, config_.typical_point_fraction *
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
      ctx.use_intra = !ctx.motion_valid ||
                      intra.sad + config_.intra_bias < ctx.motion.sad;
      const int cx = ctx.x0 / 2;
      const int cy = ctx.y0 / 2;
      if (ctx.use_intra) {
        ctx.intra_mode = intra.mode;
        media::intra_prediction_mode(recon_.y, ctx.x0, ctx.y0, intra.mode,
                                     ctx.prediction.data());
        ctx.prediction_c[0] = media::chroma_dc_prediction(recon_.cb, cx, cy);
        ctx.prediction_c[1] = media::chroma_dc_prediction(recon_.cr, cx, cy);
      } else {
        const int dx2 = ctx.motion.dx2;
        const int dy2 = ctx.motion.dy2;
        ctx.prediction = media::motion_compensate_halfpel(
            padded_reference_, ctx.x0, ctx.y0, dx2, dy2);
        ctx.prediction_c[0] = media::chroma_motion_compensate(
            reference_.cb, cx, cy, dx2, dy2);
        ctx.prediction_c[1] = media::chroma_motion_compensate(
            reference_.cr, cx, cy, dx2, dy2);
      }
      for (int b = 0; b < 4; ++b) {
        const int off = luma_block_offset(b);
        subtract_block8(ctx.source.data() + off, ctx.prediction.data() + off,
                        kMb, ctx.residual[static_cast<std::size_t>(b)]);
      }
      for (std::size_t c = 0; c < 2; ++c) {
        subtract_block8(ctx.source_c[c].data(), ctx.prediction_c[c].data(),
                        kTb, ctx.residual[4 + c]);
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
      util::BitWriter& bw = frame_writer_;
      const std::int64_t before = bw.bit_count();
      bw.put_bit(ctx.use_intra);
      if (ctx.use_intra) {
        bw.put_bits(static_cast<std::uint64_t>(ctx.intra_mode), 2);
      } else {
        // Motion vectors travel in half-pel units (even = full pel).
        media::put_se(bw, ctx.motion.dx2);
        media::put_se(bw, ctx.motion.dy2);
      }
      for (const media::Coeffs8& block : ctx.levels) {
        media::encode_block(bw, block);
      }
      ctx.bits = bw.bit_count() - before;
      return std::max(
          0.2, static_cast<double>(ctx.bits) / config_.typical_compress_bits);
    }

    // Inverse_Quantize and Inverse_DCT charge their Figure 5 costs; the
    // pixel work of both runs at Reconstruct, fused per block in
    // media::reconstruct_block8 (the routine the decoder runs), because
    // Compress may still read the levels when they start.
    case BodyAction::kInverseQuantize:
      return 1.0;

    case BodyAction::kInverseDct:
      // Sparse blocks are cheaper to invert; couple the cost mildly.
      return 0.5 + static_cast<double>(ctx.nonzero) / 96.0;

    case BodyAction::kReconstruct: {
      const std::ptrdiff_t stride = recon_.y.stride();
      media::Sample* dst = recon_.y.row(ctx.y0) + ctx.x0;
      for (int b = 0; b < 4; ++b) {
        const int bx = (b % 2) * kTb;
        const int by = (b / 2) * kTb;
        media::reconstruct_block8(
            ctx.levels[static_cast<std::size_t>(b)], qp,
            ctx.prediction.data() + luma_block_offset(b), kMb,
            dst + by * stride + bx, stride);
      }
      for (std::size_t c = 0; c < 2; ++c) {
        media::Plane& plane = (c == 0) ? recon_.cb : recon_.cr;
        media::reconstruct_block8(ctx.levels[4 + c], qp,
                                  ctx.prediction_c[c].data(), kTb,
                                  plane.row(ctx.y0 / 2) + ctx.x0 / 2,
                                  plane.stride());
      }
      return 1.0;
    }
  }
  QC_EXPECT(false, "unknown body action");
}

}  // namespace qosctrl::enc
