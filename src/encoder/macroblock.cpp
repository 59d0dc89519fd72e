#include "encoder/macroblock.h"

#include <cstddef>

#include "media/entropy.h"
#include "media/quant.h"
#include "media/reconstruct.h"

namespace qosctrl::enc {
namespace {

constexpr int kMb = media::kMacroBlockSize;
constexpr int kTb = media::kTransformSize;

}  // namespace

template <class Sink>
void put_frame_header(Sink& bw, const FrameHeader& header) {
  media::put_ue(bw, static_cast<std::uint32_t>(header.mb_cols));
  media::put_ue(bw, static_cast<std::uint32_t>(header.mb_rows));
  media::put_ue(bw, static_cast<std::uint32_t>(header.qp));
}

bool get_frame_header(util::BitReader& br, FrameHeader* out) {
  // Parsed as unsigned: a code number past INT_MAX must not wrap into
  // range.
  const std::uint32_t mb_cols = media::get_ue(br);
  const std::uint32_t mb_rows = media::get_ue(br);
  const std::uint32_t qp = media::get_ue(br);
  if (br.overrun() || mb_cols < 1 || mb_rows < 1 || mb_cols > kMaxMbPerSide ||
      mb_rows > kMaxMbPerSide || qp < media::kMinQp || qp > media::kMaxQp) {
    return false;
  }
  if (static_cast<std::int64_t>(mb_cols) * mb_rows * kMinMacroblockBits >
      br.bits_left()) {
    return false;
  }
  *out = {static_cast<int>(mb_cols), static_cast<int>(mb_rows),
          static_cast<int>(qp)};
  return true;
}

template <class Sink>
std::int64_t put_macroblock(Sink& bw, const MbHeader& header,
                            const MbLevels& levels) {
  const std::int64_t before = bw.bit_count();
  bw.put_bit(header.intra);
  if (header.intra) {
    bw.put_bits(static_cast<std::uint64_t>(header.mode), 2);
  } else {
    media::put_se(bw, header.dx2);
    media::put_se(bw, header.dy2);
  }
  for (const media::Coeffs8& block : levels) media::encode_block(bw, block);
  return bw.bit_count() - before;
}

template void put_frame_header(util::BitWriter&, const FrameHeader&);
template void put_frame_header(util::BitCounter&, const FrameHeader&);
template std::int64_t put_macroblock(util::BitWriter&, const MbHeader&,
                                     const MbLevels&);
template std::int64_t put_macroblock(util::BitCounter&, const MbHeader&,
                                     const MbLevels&);

std::vector<std::uint8_t> pack_frame(const FrameSyntax& syntax,
                                     std::int64_t* bits) {
  util::BitWriter bw;
  put_frame_header(bw, syntax.header);
  for (const MbSyntax& mb : syntax.macroblocks) {
    put_macroblock(bw, mb.header, mb.levels);
  }
  if (bits != nullptr) *bits = bw.bit_count();
  return bw.finish();
}

bool get_macroblock(util::BitReader& br, MbHeader* header,
                    MbLevels* levels) {
  header->intra = br.get_bit();
  if (header->intra) {
    const auto mode = br.get_bits(2);
    if (mode > 2) return false;
    header->mode = static_cast<media::IntraMode>(mode);
  } else {
    header->dx2 = media::get_se(br);
    header->dy2 = media::get_se(br);
    // Compared without std::abs: get_se can return INT32_MIN.
    if (header->dx2 < -kMaxVectorHalfPel || header->dx2 > kMaxVectorHalfPel ||
        header->dy2 < -kMaxVectorHalfPel || header->dy2 > kMaxVectorHalfPel) {
      return false;
    }
  }
  for (media::Coeffs8& block : *levels) {
    if (!media::decode_block(br, block)) return false;
  }
  return true;
}

void predict_macroblock(const MbHeader& header, int x0, int y0,
                        const media::YuvFrame& recon,
                        const media::YuvFrame* reference,
                        MbPrediction* out) {
  const int cx = x0 / 2;
  const int cy = y0 / 2;
  if (header.intra) {
    media::intra_prediction_mode(recon.y, x0, y0, header.mode,
                                 out->luma.data());
    out->chroma[0] = media::chroma_dc_prediction(recon.cb, cx, cy);
    out->chroma[1] = media::chroma_dc_prediction(recon.cr, cx, cy);
    return;
  }
  QC_DCHECK(reference != nullptr, "inter prediction needs a reference");
  out->luma = media::motion_compensate_halfpel(reference->y, x0, y0,
                                               header.dx2, header.dy2);
  out->chroma[0] = media::chroma_motion_compensate(reference->cb, cx, cy,
                                                   header.dx2, header.dy2);
  out->chroma[1] = media::chroma_motion_compensate(reference->cr, cx, cy,
                                                   header.dx2, header.dy2);
}

void reconstruct_macroblock(const MbLevels& levels, int qp,
                            const MbPrediction& prediction, int x0, int y0,
                            media::YuvFrame* recon) {
  const std::ptrdiff_t stride = recon->y.stride();
  media::Sample* dst = recon->y.row(y0) + x0;
  for (int b = 0; b < 4; ++b) {
    const int bx = (b % 2) * kTb;
    const int by = (b / 2) * kTb;
    media::reconstruct_block8(levels[static_cast<std::size_t>(b)], qp,
                              prediction.luma.data() + by * kMb + bx, kMb,
                              dst + by * stride + bx, stride);
  }
  for (std::size_t c = 0; c < 2; ++c) {
    media::Plane& plane = (c == 0) ? recon->cb : recon->cr;
    media::reconstruct_block8(levels[4 + c], qp, prediction.chroma[c].data(),
                              kTb, plane.row(y0 / 2) + x0 / 2,
                              plane.stride());
  }
}

}  // namespace qosctrl::enc
