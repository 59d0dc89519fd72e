#include "pipeline/simulation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace qosctrl::pipe {
namespace {

PipelineConfig small_config() {
  PipelineConfig cfg;
  cfg.video.width = 64;
  cfg.video.height = 48;  // 12 macroblocks
  cfg.video.num_frames = 60;
  cfg.video.num_scenes = 3;
  cfg.video.seed = 11;
  // 12 MBs at the paper's per-MB averages: budget scaled accordingly.
  cfg.frame_period = 19555569 * 12 / 99;
  return cfg;
}

/// 80x64 (20 macroblocks) at the periodic pacing the adaptive controller
/// needs.  On small_config's 64x48 its learned ratios never change a
/// decision, and its records equal the table controller's.
PipelineConfig learning_config() {
  PipelineConfig cfg = small_config();
  cfg.video.width = 80;
  cfg.video.height = 64;
  cfg.frame_period = 19555569 * 20 / 99;  // periodic: 20 divides P
  return cfg;
}

TEST(Pipeline, ControlledRunHasNoSkipsOrMisses) {
  PipelineConfig cfg = small_config();
  cfg.mode = ControlMode::kControlled;
  const PipelineResult r = run_pipeline(cfg);
  EXPECT_EQ(r.total_skips, 0);
  EXPECT_EQ(r.total_deadline_misses, 0);
  EXPECT_EQ(r.frames.size(), 60u);
}

TEST(Pipeline, ControlledEncodeTimeStaysWithinBudget) {
  PipelineConfig cfg = small_config();
  cfg.mode = ControlMode::kControlled;
  const PipelineResult r = run_pipeline(cfg);
  for (const auto& f : r.frames) {
    EXPECT_LE(f.start_lag + f.encode_cycles,
              cfg.frame_period * cfg.buffer_capacity)
        << "frame " << f.index;
  }
}

TEST(Pipeline, SceneCutsAreMarked) {
  const PipelineResult r = run_pipeline(small_config());
  int cuts = 0;
  for (const auto& f : r.frames) cuts += f.scene_cut ? 1 : 0;
  EXPECT_EQ(cuts, 3);
  EXPECT_TRUE(r.frames[0].scene_cut);
  EXPECT_TRUE(r.frames[20].scene_cut);
  EXPECT_TRUE(r.frames[40].scene_cut);
}

TEST(Pipeline, ConstantQualityAtHighLevelSkips) {
  PipelineConfig cfg = small_config();
  cfg.mode = ControlMode::kConstantQuality;
  cfg.constant_quality = 7;  // hopeless at this budget
  const PipelineResult r = run_pipeline(cfg);
  EXPECT_GT(r.total_skips, 0);
}

TEST(Pipeline, SkippedFramesCarryLowPsnr) {
  PipelineConfig cfg = small_config();
  cfg.mode = ControlMode::kConstantQuality;
  cfg.constant_quality = 7;
  const PipelineResult r = run_pipeline(cfg);
  double skipped_psnr = 0.0, encoded_psnr = 0.0;
  int ns = 0, ne = 0;
  for (const auto& f : r.frames) {
    if (f.skipped) {
      skipped_psnr += f.psnr;
      ++ns;
    } else {
      encoded_psnr += f.psnr;
      ++ne;
    }
  }
  ASSERT_GT(ns, 0);
  ASSERT_GT(ne, 0);
  EXPECT_LT(skipped_psnr / ns, encoded_psnr / ne)
      << "re-displayed frames must score worse than encoded ones";
}

TEST(Pipeline, LargerBufferReducesSkips) {
  PipelineConfig cfg = small_config();
  cfg.mode = ControlMode::kConstantQuality;
  cfg.constant_quality = 6;
  cfg.buffer_capacity = 1;
  const int skips_k1 = run_pipeline(cfg).total_skips;
  cfg.buffer_capacity = 3;
  const int skips_k3 = run_pipeline(cfg).total_skips;
  EXPECT_LE(skips_k3, skips_k1);
}

// Rate control steers toward kBitrateBps / frame_rate bits per frame,
// so the frame rate sets the per-frame target.
TEST(Pipeline, BitrateHitsTarget) {
  PipelineConfig cfg = small_config();
  cfg.rate.frame_rate = enc::kBitrateBps / 12000.0;  // small frames
  const PipelineResult r = run_pipeline(cfg);
  EXPECT_NEAR(r.achieved_bps, enc::kBitrateBps, enc::kBitrateBps * 0.2);
}

TEST(Pipeline, MoreBitsPerFrameBuyHigherPsnr) {
  PipelineConfig cfg = small_config();
  cfg.rate.frame_rate = enc::kBitrateBps / 4800.0;
  const double low = run_pipeline(cfg).mean_psnr_encoded;
  cfg.rate.frame_rate = enc::kBitrateBps / 20000.0;
  const double high = run_pipeline(cfg).mean_psnr_encoded;
  EXPECT_GT(high, low + 1.0)
      << "rate-distortion must slope the right way";
}

TEST(Pipeline, DeterministicForFixedSeed) {
  const PipelineResult a = run_pipeline(small_config());
  const PipelineResult b = run_pipeline(small_config());
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].encode_cycles, b.frames[i].encode_cycles);
    EXPECT_DOUBLE_EQ(a.frames[i].psnr, b.frames[i].psnr);
  }
}

class PipelineSeedSafety : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PipelineSeedSafety, SeedChangesJitterButNotSafety) {
  PipelineConfig cfg = small_config();
  cfg.seed = GetParam();
  const PipelineResult r = run_pipeline(cfg);
  EXPECT_EQ(r.total_skips, 0);
  EXPECT_EQ(r.total_deadline_misses, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSeedSafety,
                         ::testing::Values(1234, 5678, 31337, 271828,
                                           314159));

TEST(Pipeline, FeedbackModeRunsButIsFallible) {
  PipelineConfig cfg = small_config();
  cfg.mode = ControlMode::kFeedback;
  const PipelineResult r = run_pipeline(cfg);
  EXPECT_EQ(r.frames.size(), 60u);
  // No safety assertion: the PID baseline is fallible by construction;
  // just verify it produces sane output.
  EXPECT_GT(r.mean_psnr, 20.0);
}

TEST(Pipeline, SoftModeTradesSafetyForQuality) {
  PipelineConfig hard_cfg = small_config();
  PipelineConfig soft_cfg = small_config();
  soft_cfg.soft_deadlines = true;
  const PipelineResult hard = run_pipeline(hard_cfg);
  const PipelineResult soft = run_pipeline(soft_cfg);
  EXPECT_GE(soft.mean_quality, hard.mean_quality)
      << "dropping the wc constraint must not lower quality";
}

TEST(Pipeline, SmoothnessReducesQualityJumps) {
  PipelineConfig cfg = small_config();
  const PipelineResult plain = run_pipeline(cfg);
  cfg.smoothness = qos::SmoothnessPolicy{1};
  const PipelineResult smooth = run_pipeline(cfg);
  // Quality span within a frame can only shrink.
  double plain_span = 0, smooth_span = 0;
  for (std::size_t i = 0; i < plain.frames.size(); ++i) {
    plain_span += plain.frames[i].max_quality - plain.frames[i].min_quality;
    smooth_span +=
        smooth.frames[i].max_quality - smooth.frames[i].min_quality;
  }
  EXPECT_LE(smooth_span, plain_span + 1e-9);
  EXPECT_EQ(smooth.total_deadline_misses, 0);
}

TEST(Pipeline, CoarseGrainControlLosesQualityOrSafety) {
  PipelineConfig fine_cfg = small_config();
  PipelineConfig coarse_cfg = small_config();
  coarse_cfg.decimation = 12 * 9;  // one decision per frame
  const PipelineResult fine = run_pipeline(fine_cfg);
  const PipelineResult coarse = run_pipeline(coarse_cfg);
  // Coarse control must pay somewhere: either lower delivered quality,
  // or deadline misses/skips that fine-grain control avoided.
  const bool pays = coarse.mean_quality < fine.mean_quality ||
                    coarse.total_deadline_misses > 0 ||
                    coarse.total_skips > 0;
  EXPECT_TRUE(pays);
}

// A tracked session keeps the luma it rendered for encode(i) until the
// frame is delivered or lost.  A drop(j) issued in between (a queued
// frame quarantined or blacked out while frame i is in service) must
// score a fresh render of j, and must not disturb the kept luma.
TEST(StreamSessionDelivery, DropWhileInServiceScoresItsOwnFrame) {
  StreamSession a(small_config());
  StreamSession b(small_config());
  a.track_delivery();
  b.track_delivery();
  a.deliver(a.encode(0, 0));
  b.deliver(b.encode(0, 0));

  const FrameRecord in_service = a.encode(1, 0);
  const FrameRecord dropped = a.drop(5);
  // The twin drops frame 5 with nothing in service; both viewers show
  // the decoded frame 0.
  const FrameRecord reference = b.drop(5);
  EXPECT_TRUE(dropped.concealed);
  EXPECT_DOUBLE_EQ(dropped.psnr, reference.psnr);
  EXPECT_DOUBLE_EQ(dropped.ssim, reference.ssim);
  // Scoring frame 1 against the same display gives another number, so
  // the equality above really tells the two renders apart.
  EXPECT_NE(dropped.psnr, b.drop(1).psnr);

  // The frame in service still scores against its own luma: in sync,
  // the decode equals the encoder's reconstruction.
  const FrameRecord shown = a.deliver(in_service);
  EXPECT_FALSE(shown.concealed);
  EXPECT_DOUBLE_EQ(shown.psnr, in_service.psnr);
  EXPECT_DOUBLE_EQ(shown.ssim, in_service.ssim);
}

// Loss, drift, then a repair: the re-sync frame after reset_reference()
// is intra, so the decoder displays exactly the encoder's
// reconstruction.  The scores are pinned to the values the session
// produced before it kept rendered luma across encode/deliver.
TEST(StreamSessionDelivery, ResyncAfterResetReferenceScoresAsPinned) {
  StreamSession s(small_config());
  s.track_delivery();
  s.deliver(s.encode(0, 0));
  const FrameRecord lost = s.lose(s.encode(1, 0));
  EXPECT_TRUE(lost.concealed);
  const FrameRecord drift = s.encode(2, 0);
  const FrameRecord drifted = s.deliver(drift);
  EXPECT_LT(drifted.psnr, drift.psnr) << "stale reference must cost PSNR";

  s.reset_reference();
  const FrameRecord resync = s.encode(3, 0);
  const FrameRecord shown = s.deliver(resync);
  EXPECT_FALSE(shown.concealed);
  EXPECT_DOUBLE_EQ(shown.psnr, resync.psnr);
  EXPECT_DOUBLE_EQ(shown.ssim, resync.ssim);
  EXPECT_EQ(lost.psnr, 21.205002088371035);
  EXPECT_EQ(drifted.psnr, 21.056837465258202);
  EXPECT_EQ(shown.psnr, 43.117642969385848);
  EXPECT_EQ(shown.ssim, 0.99498879909515381);
}

/// FNV-1a over the bytes of one value.
template <class T>
void fnv1a(std::uint64_t* h, const T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (const unsigned char b : bytes) {
    *h ^= b;
    *h *= 1099511628211ULL;  // FNV prime
  }
}

/// FNV-1a over every FrameRecord field, doubles by their bit pattern.
void fnv1a_record(std::uint64_t* h, const FrameRecord& r) {
  fnv1a(h, r.index);
  fnv1a(h, r.skipped);
  fnv1a(h, r.scene_cut);
  fnv1a(h, r.concealed);
  fnv1a(h, r.overrun);
  fnv1a(h, r.aborted);
  fnv1a(h, r.lost);
  fnv1a(h, r.encode_cycles);
  for (const rt::Cycles c : r.phase_cycles) fnv1a(h, c);
  fnv1a(h, r.start_lag);
  fnv1a(h, r.psnr);
  fnv1a(h, r.ssim);
  fnv1a(h, r.bits);
  fnv1a(h, r.mean_quality);
  fnv1a(h, r.min_quality);
  fnv1a(h, r.max_quality);
  fnv1a(h, r.quality_change_sum);
  fnv1a(h, r.deadline_misses);
  fnv1a(h, r.qp);
  fnv1a(h, r.intra_macroblocks);
}

/// Drives one session through every call the farm makes, across the
/// scene cut at frame 10: in-order encodes, skips, losses, drops (one
/// while a frame is in service, one ahead of the next encode), a
/// reference reset, a backlogged start and an out-of-order encode.
/// Returns the FNV-1a digest of every record produced.
std::uint64_t session_digest(bool tracked) {
  PipelineConfig cfg = small_config();
  cfg.video.width = 80;
  cfg.video.height = 64;
  cfg.video.num_frames = 20;
  cfg.video.num_scenes = 2;  // the cut is frame 10
  cfg.frame_period = 19555569 * 20 / 99;
  StreamSession s(cfg);
  if (tracked) s.track_delivery();
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto record = [&](const FrameRecord& r) { fnv1a_record(&h, r); };
  record(s.deliver(s.encode(0, 0)));
  record(s.deliver(s.encode(1, 0)));
  record(s.skip(2));
  record(s.lose(s.encode(3, 0)));
  record(s.drop(4));
  record(s.deliver(s.encode(5, cfg.frame_period / 3)));
  const FrameRecord in_service = s.encode(6, 0);
  record(s.drop(7));
  record(s.deliver(in_service));
  s.reset_reference();
  record(s.deliver(s.encode(8, 0)));
  record(s.skip(9));
  record(s.deliver(s.encode(10, 0)));
  record(s.lose(s.encode(11, 0)));
  record(s.drop(13));
  record(s.deliver(s.encode(12, 0)));
  record(s.skip(15));
  record(s.deliver(s.encode(14, 0)));
  s.reset_reference();
  record(s.deliver(s.encode(16, 0)));
  record(s.drop(17));
  record(s.lose(s.encode(19, 0)));
  record(s.skip(18));
  return h;
}

// Recorded before sessions carried the rendered background between
// frames: carrying must not move any field of any record.
TEST(StreamSessionDelivery, SessionDigestIsPinned) {
  EXPECT_EQ(session_digest(true), 0x81a2e3696c10f3d6ULL);
  EXPECT_EQ(session_digest(false), 0x1ae14d1a34427d9aULL);
}

/// FNV-1a over every record of a run.
std::uint64_t records_digest(const PipelineResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const FrameRecord& f : r.frames) fnv1a_record(&h, f);
  return h;
}

// run_pipeline is the paper-figure path (Figures 6-9): every field of
// every record of two short runs is pinned.  A constant encoder at
// q = 4 overloads the budget, so with K = 2 frames start late (and are
// re-paced over the remaining window) and the camera skips arrivals.
TEST(RunPipeline, ConstantQualityBacklogRecordsArePinned) {
  PipelineConfig cfg = small_config();
  cfg.video.num_frames = 30;
  cfg.mode = ControlMode::kConstantQuality;
  cfg.constant_quality = 4;
  cfg.buffer_capacity = 2;
  const PipelineResult r = run_pipeline(cfg);
  int late = 0;
  for (const FrameRecord& f : r.frames) late += f.start_lag > 0 ? 1 : 0;
  EXPECT_GT(r.total_skips, 0);
  EXPECT_GT(late, 0);
  EXPECT_EQ(records_digest(r), 0x462befe39b9d5197ULL);
}

TEST(RunPipeline, ControlledRecordsArePinned) {
  PipelineConfig cfg = small_config();
  cfg.video.num_frames = 30;
  cfg.mode = ControlMode::kControlled;
  cfg.buffer_capacity = 1;
  const PipelineResult r = run_pipeline(cfg);
  EXPECT_EQ(r.total_skips, 0);
  EXPECT_EQ(records_digest(r), 0x6e9759d5bd75fecdULL);
}

// The feedback baseline and the adaptive controller carry state across
// frames (PID integral, learned cost ratios), so their whole runs are
// pinned too.
TEST(RunPipeline, FeedbackRecordsArePinned) {
  PipelineConfig cfg = small_config();
  cfg.video.num_frames = 30;
  cfg.mode = ControlMode::kFeedback;
  const PipelineResult r = run_pipeline(cfg);
  EXPECT_EQ(records_digest(r), 0x486d348ef038299aULL)
      << std::hex << " got 0x" << records_digest(r);
}

TEST(RunPipeline, AdaptiveRecordsArePinned) {
  PipelineConfig cfg = learning_config();
  cfg.video.num_frames = 30;
  cfg.use_adaptive_controller = true;
  const PipelineResult r = run_pipeline(cfg);
  EXPECT_EQ(r.total_deadline_misses, 0);
  EXPECT_EQ(records_digest(r), 0x8b6893d997aff753ULL)
      << std::hex << " got 0x" << records_digest(r);
}

// The learning controller stays safe where its learning changes what it
// decides: its records differ from the table controller's.
TEST(Pipeline, AdaptiveControllerAlsoSafe) {
  PipelineConfig cfg = learning_config();
  const PipelineResult table = run_pipeline(cfg);
  cfg.use_adaptive_controller = true;
  const PipelineResult r = run_pipeline(cfg);
  EXPECT_EQ(r.total_skips, 0);
  EXPECT_EQ(r.total_deadline_misses, 0);
  EXPECT_NE(records_digest(r), records_digest(table))
      << "the adaptive run must decide differently from the table run";
}

// One scoring rule: encode() scores the encoder's reconstruction
// whether or not delivery is tracked, and while the decoder is in sync
// deliver() shows that same picture, so it scores bit-equal.
TEST(StreamSessionScoring, EncodeScoresAlikeTrackedOrNotAndDeliverAgreesInSync) {
  const PipelineConfig cfg = small_config();
  StreamSession untracked(cfg);
  StreamSession tracked(cfg);
  tracked.track_delivery();
  for (int f = 18; f < 24; ++f) {  // across the scene cut at frame 20
    const rt::Cycles t0 = f == 22 ? cfg.frame_period / 3 : 0;
    const FrameRecord u = untracked.encode(f, t0);
    const FrameRecord t = tracked.encode(f, t0);
    std::uint64_t hu = 0, ht = 0;
    fnv1a_record(&hu, u);
    fnv1a_record(&ht, t);
    EXPECT_EQ(hu, ht) << "frame " << f;
    EXPECT_GT(u.psnr, 20.0) << "frame " << f;

    const FrameRecord shown = tracked.deliver(t);
    EXPECT_FALSE(shown.concealed) << "frame " << f;
    EXPECT_EQ(shown.psnr, u.psnr) << "frame " << f;
    EXPECT_EQ(shown.ssim, u.ssim) << "frame " << f;
  }
}

// A tracked session whose decoder chain goes in and out of sync with
// the encoder.  Each case pins every record it produces (FNV-1a, as
// session_digest), so a session that skips the bytes and the decode of
// a frame the decoder would rebuild bit-exactly must score it the same.
class StreamSessionInSync : public ::testing::Test {
 protected:
  StreamSessionInSync() { s_.track_delivery(); }

  FrameRecord record(const FrameRecord& r) {
    fnv1a_record(&h_, r);
    return r;
  }

  StreamSession s_{small_config()};
  std::uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
};

// The first frame never reaches the decoder, so the next inter frame
// has no reference there: it fails to decode and is concealed, as is
// every inter frame after it, until a reset re-syncs the chain.
TEST_F(StreamSessionInSync, FirstFrameLostConcealsUntilReset) {
  const FrameRecord lost = record(s_.lose(s_.encode(0, 0)));
  EXPECT_TRUE(lost.concealed);
  EXPECT_EQ(lost.psnr, 0.0) << "nothing has been shown yet";
  const FrameRecord orphan = record(s_.deliver(s_.encode(1, 0)));
  EXPECT_TRUE(orphan.concealed);
  EXPECT_EQ(orphan.psnr, 0.0);
  record(s_.deliver(s_.encode(2, 0)));
  record(s_.skip(3));
  s_.reset_reference();
  const FrameRecord intra = s_.encode(4, 0);
  const FrameRecord resync = record(s_.deliver(intra));
  EXPECT_FALSE(resync.concealed);
  EXPECT_EQ(resync.psnr, intra.psnr);
  for (int f = 5; f < 8; ++f) {
    const FrameRecord enc = s_.encode(f, 0);
    const FrameRecord shown = record(s_.deliver(enc));
    EXPECT_FALSE(shown.concealed) << "frame " << f;
    EXPECT_EQ(shown.psnr, enc.psnr) << "frame " << f;
    EXPECT_EQ(shown.ssim, enc.ssim) << "frame " << f;
  }
  EXPECT_EQ(h_, 0xe332a0a6bd90ca08ULL);
}

// In sync, then a loss: the frames after it drift until the scene cut
// at frame 20, whose macroblocks are all intra, re-syncs the chain.  A
// second loss drifts until reset_reference() forces an intra frame.
TEST_F(StreamSessionInSync, LossDriftResetResync) {
  for (int f = 14; f < 16; ++f) record(s_.deliver(s_.encode(f, 0)));
  record(s_.lose(s_.encode(16, 0)));
  auto deliver_all = [&](int begin, int end, bool drift) {
    for (int f = begin; f < end; ++f) {
      const FrameRecord enc = s_.encode(f, 0);
      const FrameRecord shown = record(s_.deliver(enc));
      EXPECT_FALSE(shown.concealed) << "frame " << f;
      if (drift) {
        EXPECT_LT(shown.psnr, enc.psnr) << "frame " << f << " must drift";
      } else {
        EXPECT_EQ(shown.psnr, enc.psnr) << "frame " << f;
        EXPECT_EQ(shown.ssim, enc.ssim) << "frame " << f;
      }
    }
  };
  deliver_all(17, 20, true);
  deliver_all(20, 23, false);  // the cut re-syncs
  record(s_.lose(s_.encode(23, 0)));
  deliver_all(24, 26, true);
  s_.reset_reference();
  deliver_all(26, 29, false);
  EXPECT_EQ(h_, 0xcecf9b8a6ec67baaULL);
}

// Drops of queued frames while a frame is in service leave the chain as
// it is: an in-sync frame delivered after them still shows its own
// reconstruction, and one lost after them starts the drift.
TEST_F(StreamSessionInSync, DropWhileInServiceKeepsTheChain) {
  record(s_.deliver(s_.encode(0, 0)));
  const FrameRecord first = s_.encode(1, 0);
  record(s_.drop(2));
  record(s_.drop(3));
  const FrameRecord shown = record(s_.deliver(first));
  EXPECT_EQ(shown.psnr, first.psnr);
  EXPECT_EQ(shown.ssim, first.ssim);
  const FrameRecord second = s_.encode(4, 0);
  record(s_.drop(5));
  record(s_.lose(second));
  const FrameRecord third = s_.encode(6, 0);
  record(s_.skip(7));
  const FrameRecord drifted = record(s_.deliver(third));
  EXPECT_LT(drifted.psnr, third.psnr);
  EXPECT_EQ(h_, 0xee556f462b7374c4ULL);
}

// Untracked, the viewer is shown the encoder's reconstruction from the
// first encoded frame on: nothing before it, and still the
// reconstruction after reset_reference() drops the temporal reference.
TEST(StreamSessionShown, ReconstructionFromTheFirstEncodeThroughResets) {
  StreamSession s(small_config());
  EXPECT_EQ(s.skip(0).psnr, 0.0);
  EXPECT_EQ(s.drop(1).ssim, 0.0);
  s.encode(2, 0);
  const FrameRecord before = s.skip(3);
  EXPECT_GT(before.psnr, 20.0);
  s.reset_reference();
  const FrameRecord after = s.skip(3);
  EXPECT_EQ(after.psnr, before.psnr);
  EXPECT_EQ(after.ssim, before.ssim);
}

TEST(Pipeline, SummaryMentionsKeyFields) {
  const PipelineResult r = run_pipeline(small_config());
  const std::string s = summarize(r);
  EXPECT_NE(s.find("skips="), std::string::npos);
  EXPECT_NE(s.find("mean_psnr="), std::string::npos);
  EXPECT_NE(s.find("kbps="), std::string::npos);
}

}  // namespace
}  // namespace qosctrl::pipe
