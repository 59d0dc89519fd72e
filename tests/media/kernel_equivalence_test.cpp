// Golden equivalence: the span/padded fast kernels must reproduce the
// naive per-pixel reference semantics bit-for-bit (SAD, full- and
// half-pel motion compensation, motion estimation, intra prediction),
// and the fixed-point DCT must track the double-precision reference
// within tight error and round-trip PSNR bounds.  The naive references
// are reimplemented here, independent of the library, so a regression
// in the fast paths cannot hide behind a matching regression in the
// oracle.
#include <gtest/gtest.h>

#include <cmath>

#include "media/dct.h"
#include "media/intra.h"
#include "media/motion.h"
#include "media/padded_frame.h"
#include "util/rng.h"

namespace qosctrl::media {
namespace {

Frame random_frame(util::Rng& rng, int w, int h) {
  Frame f(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      f.set(x, y, static_cast<Sample>(rng.uniform_i64(0, 255)));
    }
  }
  return f;
}

/// The original per-pixel clamped SAD (no early exit).
std::int64_t naive_sad(const Frame& cur, const Frame& ref, int x0, int y0,
                       int dx, int dy) {
  std::int64_t acc = 0;
  for (int y = 0; y < kMacroBlockSize; ++y) {
    for (int x = 0; x < kMacroBlockSize; ++x) {
      acc += std::abs(static_cast<int>(cur.at(x0 + x, y0 + y)) -
                      static_cast<int>(ref.at_clamped(x0 + x + dx,
                                                      y0 + y + dy)));
    }
  }
  return acc;
}

/// The original per-pixel clamped half-pel compensation.
std::array<Sample, 256> naive_halfpel(const Frame& ref, int x0, int y0,
                                      int dx2, int dy2) {
  const int ix = (dx2 >= 0) ? dx2 / 2 : (dx2 - 1) / 2;
  const int iy = (dy2 >= 0) ? dy2 / 2 : (dy2 - 1) / 2;
  const int fx = dx2 - 2 * ix;
  const int fy = dy2 - 2 * iy;
  std::array<Sample, 256> out;
  for (int y = 0; y < kMacroBlockSize; ++y) {
    for (int x = 0; x < kMacroBlockSize; ++x) {
      const int bx = x0 + x + ix;
      const int by = y0 + y + iy;
      const int a = ref.at_clamped(bx, by);
      int v;
      if (fx == 0 && fy == 0) {
        v = a;
      } else if (fx == 1 && fy == 0) {
        v = (a + ref.at_clamped(bx + 1, by) + 1) / 2;
      } else if (fx == 0) {
        v = (a + ref.at_clamped(bx, by + 1) + 1) / 2;
      } else {
        v = (a + ref.at_clamped(bx + 1, by) + ref.at_clamped(bx, by + 1) +
             ref.at_clamped(bx + 1, by + 1) + 2) / 4;
      }
      out[static_cast<std::size_t>(y * kMacroBlockSize + x)] =
          static_cast<Sample>(v);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// SAD

TEST(KernelEquivalence, SadKernelMatchesNaiveOnInteriorBlocks) {
  util::Rng rng(21);
  const Frame cur = random_frame(rng, 64, 48);
  const Frame ref = random_frame(rng, 64, 48);
  for (int trial = 0; trial < 200; ++trial) {
    const int x0 = static_cast<int>(rng.uniform_i64(0, 3)) * 16;
    const int y0 = static_cast<int>(rng.uniform_i64(0, 2)) * 16;
    const int dx = static_cast<int>(rng.uniform_i64(-8, 8));
    const int dy = static_cast<int>(rng.uniform_i64(-8, 8));
    if (x0 + dx < 0 || y0 + dy < 0 || x0 + dx + 16 > 64 ||
        y0 + dy + 16 > 48) {
      continue;  // interior kernel only
    }
    const auto block = read_macroblock(cur, x0, y0);
    const std::int64_t fast =
        sad_16x16(block.data(), ref.row(y0 + dy) + x0 + dx, ref.stride(),
                  INT64_C(1) << 60);
    EXPECT_EQ(fast, naive_sad(cur, ref, x0, y0, dx, dy));
  }
}

TEST(KernelEquivalence, SadKernelEarlyExitNeverUnderreports) {
  util::Rng rng(22);
  const Frame cur = random_frame(rng, 32, 32);
  const Frame ref = random_frame(rng, 32, 32);
  const auto block = read_macroblock(cur, 16, 16);
  const std::int64_t exact =
      sad_16x16(block.data(), ref.row(16) + 16, ref.stride(),
                INT64_C(1) << 60);
  for (std::int64_t best : {INT64_C(1), exact / 2, exact, exact + 1}) {
    const std::int64_t s =
        sad_16x16(block.data(), ref.row(16) + 16, ref.stride(), best);
    if (s < best) {
      EXPECT_EQ(s, exact);  // claimed-better results must be exact
    } else {
      EXPECT_LE(s, exact);  // partial sums only ever undershoot
    }
  }
}

// ---------------------------------------------------------------------------
// Motion compensation, full- and half-pel, borders included

TEST(KernelEquivalence, FullPelCompensationBitExactIncludingBorders) {
  util::Rng rng(23);
  const Frame ref = random_frame(rng, 64, 48);
  const PaddedFrame padded(ref);
  for (int mby = 0; mby < 3; ++mby) {
    for (int mbx = 0; mbx < 4; ++mbx) {
      for (int trial = 0; trial < 30; ++trial) {
        const int dx = static_cast<int>(rng.uniform_i64(-15, 15));
        const int dy = static_cast<int>(rng.uniform_i64(-15, 15));
        const auto a = motion_compensate(ref, mbx * 16, mby * 16, dx, dy);
        const auto b = motion_compensate(padded, mbx * 16, mby * 16, dx, dy);
        ASSERT_EQ(a, b) << "mb (" << mbx << "," << mby << ") d (" << dx
                        << "," << dy << ")";
      }
    }
  }
}

TEST(KernelEquivalence, HalfPelCompensationBitExactIncludingBorders) {
  util::Rng rng(24);
  const Frame ref = random_frame(rng, 64, 48);
  const PaddedFrame padded(ref);
  for (int mby = 0; mby < 3; ++mby) {
    for (int mbx = 0; mbx < 4; ++mbx) {
      for (int dy2 = -19; dy2 <= 19; dy2 += 3) {
        for (int dx2 = -19; dx2 <= 19; dx2 += 3) {
          const int x0 = mbx * 16;
          const int y0 = mby * 16;
          const auto naive = naive_halfpel(ref, x0, y0, dx2, dy2);
          ASSERT_EQ(motion_compensate_halfpel(ref, x0, y0, dx2, dy2), naive)
              << "frame path, d2 (" << dx2 << "," << dy2 << ")";
          ASSERT_EQ(motion_compensate_halfpel(padded, x0, y0, dx2, dy2),
                    naive)
              << "padded path, d2 (" << dx2 << "," << dy2 << ")";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Motion estimation: padded and clamped searches decide identically

TEST(KernelEquivalence, EstimateMotionPaddedMatchesFrameEverywhere) {
  util::Rng rng(25);
  for (int trial = 0; trial < 4; ++trial) {
    const Frame ref = random_frame(rng, 64, 48);
    Frame cur = ref;
    // Shift a patch so the search has structure to find.
    for (int y = 8; y < 40; ++y) {
      for (int x = 8; x < 56; ++x) {
        cur.set(x, y, ref.at_clamped(x - 3, y + 2));
      }
    }
    const PaddedFrame padded(ref);
    for (const bool half_pel : {false, true}) {
      for (int mby = 0; mby < 3; ++mby) {
        for (int mbx = 0; mbx < 4; ++mbx) {
          MotionConfig cfg;
          cfg.radius = 8;
          cfg.early_exit_sad = (trial % 2 == 0) ? 512 : 0;
          cfg.half_pel = half_pel;
          const MotionResult a =
              estimate_motion(cur, ref, mbx * 16, mby * 16, cfg);
          const MotionResult b =
              estimate_motion(cur, padded, mbx * 16, mby * 16, cfg);
          EXPECT_EQ(a.dx, b.dx);
          EXPECT_EQ(a.dy, b.dy);
          EXPECT_EQ(a.dx2, b.dx2);
          EXPECT_EQ(a.dy2, b.dy2);
          EXPECT_EQ(a.sad, b.sad);
          EXPECT_EQ(a.points_examined, b.points_examined);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Intra prediction: span version vs per-pixel probing reference

std::array<Sample, 256> naive_intra(const Frame& recon, int x0, int y0,
                                    IntraMode mode) {
  std::array<Sample, 256> out;
  switch (mode) {
    case IntraMode::kDc: {
      int sum = 0, count = 0;
      for (int x = 0; x < 16; ++x) {
        if (recon.in_bounds(x0 + x, y0 - 1)) {
          sum += recon.at(x0 + x, y0 - 1);
          ++count;
        }
      }
      for (int y = 0; y < 16; ++y) {
        if (recon.in_bounds(x0 - 1, y0 + y)) {
          sum += recon.at(x0 - 1, y0 + y);
          ++count;
        }
      }
      out.fill(count > 0 ? static_cast<Sample>((sum + count / 2) / count)
                         : 128);
      return out;
    }
    case IntraMode::kHorizontal:
      for (int y = 0; y < 16; ++y) {
        const Sample left =
            recon.in_bounds(x0 - 1, y0 + y) ? recon.at(x0 - 1, y0 + y) : 128;
        for (int x = 0; x < 16; ++x) {
          out[static_cast<std::size_t>(y * 16 + x)] = left;
        }
      }
      return out;
    case IntraMode::kVertical:
      for (int x = 0; x < 16; ++x) {
        const Sample top =
            recon.in_bounds(x0 + x, y0 - 1) ? recon.at(x0 + x, y0 - 1) : 128;
        for (int y = 0; y < 16; ++y) {
          out[static_cast<std::size_t>(y * 16 + x)] = top;
        }
      }
      return out;
  }
  out.fill(128);
  return out;
}

TEST(KernelEquivalence, IntraPredictionBitExactIncludingBorders) {
  util::Rng rng(26);
  const Frame recon = random_frame(rng, 64, 48);
  for (int mby = 0; mby < 3; ++mby) {
    for (int mbx = 0; mbx < 4; ++mbx) {
      for (const IntraMode mode :
           {IntraMode::kDc, IntraMode::kHorizontal, IntraMode::kVertical}) {
        std::array<Sample, 256> pred;
        intra_prediction_mode(recon, mbx * 16, mby * 16, mode, pred.data());
        ASSERT_EQ(pred, naive_intra(recon, mbx * 16, mby * 16, mode))
            << "mb (" << mbx << "," << mby << ") mode "
            << static_cast<int>(mode);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DCT: integer kernel vs double reference

TEST(KernelEquivalence, ForwardDctTracksReferenceWithinOne) {
  util::Rng rng(27);
  for (int trial = 0; trial < 500; ++trial) {
    Block8 b;
    for (auto& v : b) {
      v = static_cast<Residual>(rng.uniform_i64(-255, 255));
    }
    Coeffs8 fast;
    forward_dct8(b, fast);
    const Coeffs8 ref = forward_dct8_ref(b);
    for (std::size_t i = 0; i < 64; ++i) {
      ASSERT_NEAR(fast[i], ref[i], 1) << "coefficient " << i;
    }
  }
}

TEST(KernelEquivalence, InverseDctTracksReferenceWithinOne) {
  util::Rng rng(28);
  for (int trial = 0; trial < 500; ++trial) {
    Coeffs8 c;
    for (auto& v : c) {
      v = static_cast<std::int32_t>(rng.uniform_i64(-2040, 2040));
    }
    Block8 fast;
    inverse_dct8(c, fast);
    const Block8 ref = inverse_dct8_ref(c);
    for (std::size_t i = 0; i < 64; ++i) {
      ASSERT_NEAR(fast[i], ref[i], 1) << "sample " << i;
    }
  }
}

TEST(KernelEquivalence, IntegerDctRoundTripPsnrBound) {
  // Round-trip noise of the integer pair must stay in the same class as
  // the double reference pair: at least 54 dB over 9-bit residuals
  // (peak 510), i.e. RMS error well under half an LSB.
  util::Rng rng(29);
  double sse = 0.0;
  int n = 0;
  for (int trial = 0; trial < 500; ++trial) {
    Block8 b;
    for (auto& v : b) {
      v = static_cast<Residual>(rng.uniform_i64(-255, 255));
    }
    Coeffs8 c;
    forward_dct8(b, c);
    Block8 back;
    inverse_dct8(c, back);
    for (std::size_t i = 0; i < 64; ++i) {
      const double d = static_cast<double>(back[i]) - b[i];
      sse += d * d;
      ++n;
    }
  }
  const double mse = sse / n;
  const double psnr_db = 10.0 * std::log10(510.0 * 510.0 / (mse + 1e-12));
  EXPECT_GE(psnr_db, 54.0) << "round-trip MSE " << mse;
}

}  // namespace
}  // namespace qosctrl::media
