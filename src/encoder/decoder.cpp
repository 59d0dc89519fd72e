#include "encoder/decoder.h"

#include "encoder/macroblock.h"

namespace qosctrl::enc {

DecodeResult decode_frame(const std::vector<std::uint8_t>& bitstream,
                          const media::YuvFrame* reference) {
  constexpr int kMb = media::kMacroBlockSize;
  QC_EXPECT(reference == nullptr || (reference->y.pad() >= media::kLumaPad &&
                                     reference->cb.pad() >= media::kChromaPad &&
                                     reference->cr.pad() >= media::kChromaPad),
            "the decoder's reference must be a reference picture");
  DecodeResult result;
  util::BitReader br(bitstream);
  FrameHeader header;
  if (!get_frame_header(br, &header)) return result;
  if (reference != nullptr &&
      (reference->width() != header.mb_cols * kMb ||
       reference->height() != header.mb_rows * kMb)) {
    return result;  // geometry mismatch
  }
  result.qp = header.qp;
  result.frame = media::YuvFrame(header.mb_cols * kMb, header.mb_rows * kMb);

  MbHeader mb_header;
  MbLevels levels;
  MbPrediction prediction;
  for (int mb = 0; mb < header.mb_cols * header.mb_rows; ++mb) {
    if (!get_macroblock(br, &mb_header, &levels)) return result;
    if (!mb_header.intra && reference == nullptr) {
      return result;  // the stream needs a reference
    }
    result.intra_macroblocks += mb_header.intra ? 1 : 0;
    const int x0 = (mb % header.mb_cols) * kMb;
    const int y0 = (mb / header.mb_cols) * kMb;
    predict_macroblock(mb_header, x0, y0, result.frame, reference,
                       &prediction);
    reconstruct_macroblock(levels, header.qp, prediction, x0, y0,
                           &result.frame);
  }
  result.ok = !br.overrun();
  if (result.ok) result.frame.fill_borders();
  return result;
}

}  // namespace qosctrl::enc
