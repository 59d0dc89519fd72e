#include "encoder/decoder.h"

namespace qosctrl::enc {
namespace {

// The macroblock sources of the one decode loop.  next() gives the next
// macroblock's syntax in raster order, or nullptr when it is malformed;
// ok() says whether the source held out to the last macroblock.

/// Parses each macroblock from the bitstream.
class ParsedMacroblocks {
 public:
  explicit ParsedMacroblocks(util::BitReader& br) : br_(br) {}
  const MbSyntax* next() {
    return get_macroblock(br_, &mb_.header, &mb_.levels) ? &mb_ : nullptr;
  }
  bool ok() const { return !br_.overrun(); }

 private:
  util::BitReader& br_;
  MbSyntax mb_;
};

/// Hands out the syntax an encoder kept, which is well formed.
class KeptMacroblocks {
 public:
  explicit KeptMacroblocks(const std::vector<MbSyntax>& macroblocks)
      : next_(macroblocks.data()) {}
  const MbSyntax* next() { return next_++; }
  static bool ok() { return true; }

 private:
  const MbSyntax* next_;
};

/// Predicts and reconstructs every macroblock `source` gives against
/// `reference`: the prediction and reconstruction rules of both
/// decode_frame and rebuild_frame.
template <class Source>
DecodeResult decode_macroblocks(const FrameHeader& header, Source& source,
                                const media::YuvFrame* reference) {
  constexpr int kMb = media::kMacroBlockSize;
  DecodeResult result;
  if (reference != nullptr &&
      (reference->width() != header.mb_cols * kMb ||
       reference->height() != header.mb_rows * kMb)) {
    return result;  // geometry mismatch
  }
  result.qp = header.qp;
  result.frame = media::YuvFrame(header.mb_cols * kMb, header.mb_rows * kMb);

  MbPrediction prediction;
  for (int mb = 0; mb < header.mb_cols * header.mb_rows; ++mb) {
    const MbSyntax* syntax = source.next();
    if (syntax == nullptr) return result;
    if (!syntax->header.intra && reference == nullptr) {
      return result;  // the stream needs a reference
    }
    result.intra_macroblocks += syntax->header.intra ? 1 : 0;
    const int x0 = (mb % header.mb_cols) * kMb;
    const int y0 = (mb / header.mb_cols) * kMb;
    predict_macroblock(syntax->header, x0, y0, result.frame, reference,
                       &prediction);
    reconstruct_macroblock(syntax->levels, header.qp, prediction, x0, y0,
                           &result.frame);
  }
  result.ok = source.ok();
  if (result.ok) result.frame.fill_borders();
  return result;
}

void expect_reference_picture(const media::YuvFrame* reference) {
  QC_EXPECT(reference == nullptr || (reference->y.pad() >= media::kLumaPad &&
                                     reference->cb.pad() >= media::kChromaPad &&
                                     reference->cr.pad() >= media::kChromaPad),
            "the decoder's reference must be a reference picture");
}

}  // namespace

DecodeResult decode_frame(const std::vector<std::uint8_t>& bitstream,
                          const media::YuvFrame* reference) {
  expect_reference_picture(reference);
  util::BitReader br(bitstream);
  FrameHeader header;
  if (!get_frame_header(br, &header)) return {};
  ParsedMacroblocks source(br);
  return decode_macroblocks(header, source, reference);
}

DecodeResult rebuild_frame(const FrameSyntax& syntax,
                           const media::YuvFrame* reference) {
  expect_reference_picture(reference);
  QC_EXPECT(syntax.header.mb_cols >= 1 && syntax.header.mb_rows >= 1 &&
                syntax.macroblocks.size() ==
                    static_cast<std::size_t>(syntax.header.mb_cols) *
                        static_cast<std::size_t>(syntax.header.mb_rows),
            "rebuild_frame needs a whole frame's kept syntax");
  KeptMacroblocks source(syntax.macroblocks);
  return decode_macroblocks(syntax.header, source, reference);
}

}  // namespace qosctrl::enc
