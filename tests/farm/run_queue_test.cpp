// The data plane's display-miss detector, driven directly: admission
// never lets a processor miss, so every farm-level test asserts zero
// misses and cannot tell a working detector from a dead one.  Here
// hand-built assignments over-commit one processor below the admission
// layer, and the detector's count must equal an oracle recomputed from
// the frame records alone.
#include "farm/run_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "encoder/system_builder.h"
#include "farm/probe.h"
#include "farm_test_util.h"
#include "obs/metrics.h"

namespace qosctrl::farm {
namespace {

// Three 4-macroblock streams, each reserving its whole period as its
// table budget, share one non-preemptive processor: about three periods
// of demand per period.  With K = 1 a frame's display deadline is its
// arrival plus one period, and without faults or preemption its service
// is one uninterrupted run from arrival + start_lag, so frame f of a
// stream is late by start_lag + encode_cycles - latency when positive.
TEST(RunQueueMisses, OverCommittedProcessorMissesAsItsRecordsSay) {
  constexpr int kStreams = 3;
  constexpr int kFrames = 8;
  std::vector<StreamSpec> specs;
  for (int i = 0; i < kStreams; ++i) {
    StreamSpec s = tiny_stream(i, 1.0, kFrames);
    s.join_time = i * (period_of(s) / kStreams);
    specs.push_back(s);
  }
  std::vector<std::vector<BudgetEpoch>> epochs;
  std::vector<std::vector<pipe::FrameRecord>> records;
  std::vector<SegmentResult> results(kStreams);
  for (const StreamSpec& s : specs) {
    const rt::Cycles budget = latency_of(s);
    epochs.push_back({BudgetEpoch{
        0, budget, budget,
        std::make_shared<const enc::EncoderSystem>(enc::build_encoder_system(
            macroblocks_of(s), budget, platform::figure5_cost_table()))}});
    records.emplace_back(static_cast<std::size_t>(kFrames));
  }
  std::vector<Assignment> assigned;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Assignment a;
    a.spec = &specs[i];
    a.epochs = &epochs[i];
    a.first_frame = 0;
    a.end_frame = kFrames;
    a.records = records[i].data();
    a.res = &results[i];
    assigned.push_back(a);
  }
  obs::Registry metrics;
  Probe probe(0, metrics, nullptr, nullptr);
  run_processor(FarmConfig{}, SchedulingSpec{}, FaultSpec{}, {}, assigned,
                probe);

  int oracle_total = 0;
  int detected_total = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    int oracle = 0;
    for (const pipe::FrameRecord& rec : records[i]) {
      if (!rec.encoded()) continue;
      const rt::Cycles lateness =
          rec.start_lag + rec.encode_cycles - latency_of(specs[i]);
      oracle += lateness > 0 ? 1 : 0;
    }
    EXPECT_EQ(results[i].display_misses, oracle) << "stream " << i;
    oracle_total += oracle;
    detected_total += results[i].display_misses;
  }
  EXPECT_GT(oracle_total, 0) << "the over-commit must produce misses";
  EXPECT_LT(oracle_total, kStreams * kFrames)
      << "some frames must be on time, so the oracle tells them apart";
  EXPECT_EQ(metrics.counter("display_misses"), detected_total);
}

}  // namespace
}  // namespace qosctrl::farm
