#include "encoder/decoder.h"

#include <cstddef>
#include <cstdint>

#include "media/entropy.h"
#include "media/intra.h"
#include "media/motion.h"
#include "media/padded_frame.h"
#include "media/plane.h"
#include "media/quant.h"
#include "media/reconstruct.h"
#include "util/bitio.h"

namespace qosctrl::enc {
namespace {

constexpr int kMb = media::kMacroBlockSize;
constexpr int kTb = media::kTransformSize;
constexpr std::int64_t kMinMacroblockBits = 1 + 2 + 6;

}  // namespace

DecodeResult decode_frame(const std::vector<std::uint8_t>& bitstream,
                          const media::YuvFrame* reference) {
  DecodeResult result;
  util::BitReader br(bitstream);
  const auto mb_cols = static_cast<int>(media::get_ue(br));
  const auto mb_rows = static_cast<int>(media::get_ue(br));
  const auto qp = static_cast<int>(media::get_ue(br));
  if (br.overrun() || mb_cols <= 0 || mb_rows <= 0 || mb_cols > 1024 ||
      mb_rows > 1024 || qp < media::kMinQp || qp > media::kMaxQp) {
    return result;
  }
  // Every macroblock costs at least 9 bits (the intra flag, a 2-bit
  // mode or two 1-bit se(0), six end-of-block bits), so a header whose
  // geometry the rest of the stream cannot fill is rejected before
  // the frame is allocated.
  if (static_cast<std::int64_t>(mb_cols) * mb_rows * kMinMacroblockBits >
      br.bits_left()) {
    return result;
  }
  if (reference != nullptr &&
      (reference->width() != mb_cols * kMb ||
       reference->height() != mb_rows * kMb)) {
    return result;  // geometry mismatch
  }
  result.qp = qp;
  result.frame = media::YuvFrame(mb_cols * kMb, mb_rows * kMb);

  // Pad the luma reference once so inter prediction runs the span
  // kernels; vectors larger than the margin (legal in the bitstream,
  // never produced by the encoder) fall back to the clamped path.
  media::PaddedFrame padded_ref;
  if (reference != nullptr) {
    padded_ref.update_from(reference->y);
  }

  for (int mb = 0; mb < mb_cols * mb_rows; ++mb) {
    const int x0 = (mb % mb_cols) * kMb;
    const int y0 = (mb / mb_cols) * kMb;

    const bool intra = br.get_bit();
    std::array<media::Sample, 256> prediction;
    std::array<std::array<media::Sample, 64>, 2> prediction_c;
    if (intra) {
      const auto mode =
          static_cast<media::IntraMode>(br.get_bits(2));
      if (static_cast<int>(mode) > 2) return result;
      media::intra_prediction_mode(result.frame.y, x0, y0, mode,
                                   prediction.data());
      for (int c = 0; c < 2; ++c) {
        const media::Plane& plane =
            (c == 0) ? result.frame.cb : result.frame.cr;
        prediction_c[static_cast<std::size_t>(c)] =
            media::chroma_dc_prediction(plane, x0 / 2, y0 / 2);
      }
      ++result.intra_macroblocks;
    } else {
      if (reference == nullptr) return result;  // stream needs a reference
      const auto dx2 = media::get_se(br);  // half-pel units
      const auto dy2 = media::get_se(br);
      // Compared without std::abs: get_se can return INT32_MIN.
      if (dx2 < -128 || dx2 > 128 || dy2 < -128 || dy2 > 128) return result;
      if (padded_ref.covers_block16_halfpel(x0, y0, dx2, dy2)) {
        prediction = media::motion_compensate_halfpel(padded_ref, x0, y0,
                                                      dx2, dy2);
      } else {
        prediction = media::motion_compensate_halfpel(reference->y, x0, y0,
                                                      dx2, dy2);
      }
      for (int c = 0; c < 2; ++c) {
        const media::Plane& plane =
            (c == 0) ? reference->cb : reference->cr;
        prediction_c[static_cast<std::size_t>(c)] =
            media::chroma_motion_compensate(plane, x0 / 2, y0 / 2, dx2,
                                            dy2);
      }
    }

    // Levels decode straight into the shared inverse path, one block
    // at a time, written into the frame where they belong.
    const auto reconstruct = [&](const media::Sample* pred,
                                 std::ptrdiff_t pred_stride,
                                 media::Sample* dst,
                                 std::ptrdiff_t dst_stride) {
      const std::optional<media::Coeffs8> levels = media::decode_block(br);
      if (!levels.has_value() || br.overrun()) return false;
      media::reconstruct_block8(*levels, qp, pred, pred_stride, dst,
                                dst_stride);
      return true;
    };
    const std::ptrdiff_t stride = result.frame.y.stride();
    for (int b = 0; b < 4; ++b) {
      const int bx = (b % 2) * kTb;
      const int by = (b / 2) * kTb;
      if (!reconstruct(prediction.data() + by * kMb + bx, kMb,
                       result.frame.y.row(y0 + by) + x0 + bx, stride)) {
        return result;
      }
    }
    for (std::size_t c = 0; c < 2; ++c) {
      media::Plane& plane = (c == 0) ? result.frame.cb : result.frame.cr;
      if (!reconstruct(prediction_c[c].data(), kTb,
                       plane.row(y0 / 2) + x0 / 2, plane.stride())) {
        return result;
      }
    }
  }
  result.ok = !br.overrun();
  return result;
}

}  // namespace qosctrl::enc
