// Buffer accounting with buffer_capacity K > 1: the hand-specified
// arrival trace is a_f = f * P; from it and the recorded encode
// durations an independent reference replay of the K-slot input buffer
// derives which frames must be skipped, when each encode must start
// (start_lag), and the deadline a_f + K * P every controlled frame
// must meet.  The pipeline's records are pinned against that replay.
#include <gtest/gtest.h>

#include <deque>

#include "pipeline/simulation.h"

namespace qosctrl::pipe {
namespace {

PipelineConfig overload_config(int buffer_capacity) {
  PipelineConfig cfg;
  cfg.video.width = 64;
  cfg.video.height = 48;  // 12 macroblocks
  cfg.video.num_frames = 48;
  cfg.video.num_scenes = 2;
  cfg.video.seed = 17;
  cfg.frame_period = 19555569 * 12 / 99;
  cfg.buffer_capacity = buffer_capacity;
  // Constant quality 6 is hopeless at this budget: encodes overrun the
  // period, the buffer fills, and skips + start lags appear.
  cfg.mode = ControlMode::kConstantQuality;
  cfg.constant_quality = 6;
  return cfg;
}

/// Replays the camera/buffer/encoder timing from the recorded encode
/// durations alone and checks every skip flag and start lag.
void verify_against_replay(const PipelineConfig& cfg,
                           const PipelineResult& r) {
  const rt::Cycles P = cfg.frame_period;
  const int K = cfg.buffer_capacity;
  ASSERT_EQ(r.frames.size(), static_cast<std::size_t>(cfg.video.num_frames));

  rt::Cycles free_at = 0;
  std::deque<int> buffered;
  int max_occupancy = 0;

  auto replay_encode = [&](int g) {
    const rt::Cycles arrival = static_cast<rt::Cycles>(g) * P;
    const rt::Cycles start = std::max(free_at, arrival);
    EXPECT_FALSE(r.frames[g].skipped) << "frame " << g;
    EXPECT_EQ(r.frames[g].start_lag, start - arrival) << "frame " << g;
    free_at = start + r.frames[g].encode_cycles;
  };

  for (int f = 0; f < cfg.video.num_frames; ++f) {
    const rt::Cycles arrival = static_cast<rt::Cycles>(f) * P;
    while (!buffered.empty() && free_at <= arrival) {
      const int g = buffered.front();
      buffered.pop_front();
      replay_encode(g);
    }
    if (static_cast<int>(buffered.size()) >= K) {
      EXPECT_TRUE(r.frames[f].skipped)
          << "frame " << f << " must be dropped: buffer holds K = " << K;
      EXPECT_EQ(r.frames[f].encode_cycles, 0);
      continue;
    }
    buffered.push_back(f);
    max_occupancy = std::max(max_occupancy,
                             static_cast<int>(buffered.size()));
  }
  while (!buffered.empty()) {
    const int g = buffered.front();
    buffered.pop_front();
    replay_encode(g);
  }
  // The larger buffer must actually be exercised, not just tolerated.
  EXPECT_EQ(max_occupancy, K) << "the overload must fill all K slots";
}

TEST(BufferAccounting, ReplayMatchesForK2) {
  const PipelineConfig cfg = overload_config(2);
  const PipelineResult r = run_pipeline(cfg);
  ASSERT_GT(r.total_skips, 0) << "overload scenario must drop frames";
  verify_against_replay(cfg, r);
}

TEST(BufferAccounting, ReplayMatchesForK3) {
  const PipelineConfig cfg = overload_config(3);
  const PipelineResult r = run_pipeline(cfg);
  ASSERT_GT(r.total_skips, 0) << "overload scenario must drop frames";
  verify_against_replay(cfg, r);
}

TEST(BufferAccounting, StartLagAppearsOnlyWithBacklog) {
  // K = 3 buys time: some frames must start late (positive lag), and
  // every positive lag must equal the previous frame's overrun.
  const PipelineConfig cfg = overload_config(3);
  const PipelineResult r = run_pipeline(cfg);
  bool lagged = false;
  for (const FrameRecord& fr : r.frames) {
    if (!fr.skipped && fr.start_lag > 0) lagged = true;
  }
  EXPECT_TRUE(lagged) << "an overloaded K=3 buffer must cause late starts";
}

TEST(BufferAccounting, LateCompletionImpliesRecordedDeadlineMiss) {
  // The per-frame deadline is a_f + K * P: the last paced action
  // deadline equals the budget K * P measured from arrival (elapsed
  // time includes the start lag).  A frame completing past it must
  // carry at least one recorded deadline miss, and a frame completing
  // within it at constant quality <= ceiling must not miss its last
  // deadline... the forward implication is what the accounting pins.
  const PipelineConfig cfg = overload_config(2);
  const PipelineResult r = run_pipeline(cfg);
  const rt::Cycles budget = cfg.frame_period * cfg.buffer_capacity;
  int late = 0;
  for (const FrameRecord& fr : r.frames) {
    if (fr.skipped) continue;
    if (fr.start_lag + fr.encode_cycles > budget) {
      ++late;
      EXPECT_GE(fr.deadline_misses, 1)
          << "frame " << fr.index
          << " finished past a_f + K*P without a recorded miss";
    }
  }
  EXPECT_GT(late, 0) << "the overload scenario must overrun a_f + K*P";
}

TEST(BufferAccounting, ControlledModeHonorsDisplayDeadlineWithK2) {
  // Under table control with K = 2 the display contract holds: no
  // frame is dropped and every frame completes by a_f + K * P.  With
  // per-frame re-pacing (the default), a late-starting frame's
  // deadlines are spread over the *remaining* window max(arrival,
  // start) .. a_f + K * P, so backlog no longer walks the controller
  // into already-expired arrival-paced deadlines: the intermediate
  // miss count is clean too.
  PipelineConfig cfg = overload_config(2);
  cfg.mode = ControlMode::kControlled;
  const PipelineResult r = run_pipeline(cfg);
  EXPECT_EQ(r.total_skips, 0);
  bool lagged = false;
  for (const FrameRecord& fr : r.frames) {
    ASSERT_FALSE(fr.skipped);
    EXPECT_LE(fr.start_lag + fr.encode_cycles,
              cfg.frame_period * cfg.buffer_capacity)
        << "frame " << fr.index << " blew the display deadline a_f + K*P";
    lagged = lagged || fr.start_lag > 0;
  }
  EXPECT_TRUE(lagged) << "the K=2 run must actually exercise the buffer";
  EXPECT_EQ(r.total_deadline_misses, 0)
      << "re-paced tables must not log pacing misses under backlog";
}

TEST(BufferAccounting, ControlledModeIsCleanForK3Too) {
  PipelineConfig cfg = overload_config(3);
  cfg.mode = ControlMode::kControlled;
  const PipelineResult r = run_pipeline(cfg);
  EXPECT_EQ(r.total_skips, 0);
  EXPECT_EQ(r.total_deadline_misses, 0);
  for (const FrameRecord& fr : r.frames) {
    EXPECT_LE(fr.start_lag + fr.encode_cycles,
              cfg.frame_period * cfg.buffer_capacity)
        << "frame " << fr.index;
  }
}

}  // namespace
}  // namespace qosctrl::pipe
