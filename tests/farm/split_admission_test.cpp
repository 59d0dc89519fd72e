// Pinned scenarios for C=D semi-partitioned admission
// (SchedulingSpec::split) end to end through the farm: a concrete mix
// where splitting converts a rejection into a miss-free admission,
// bit-identical results across worker counts with a split stream in
// play, and a pinned report for a generated churn load.
//
// The mixes are built from the qmin worst case m = 176000 cycles/MB
// (pinned in admission_test.cpp), so the arithmetic below is exact.
#include <gtest/gtest.h>

#include "farm/load_gen.h"
#include "farm/metrics.h"
#include "farm/simulator.h"
#include "farm_test_util.h"

namespace qosctrl::farm {
namespace {

TEST(SplitAdmission, UnsplitFarmRejectsTheSplitLimitedMix) {
  const FarmResult r = run_farm(split_limited_mix(), two_proc_config());
  EXPECT_EQ(r.admitted, 2) << summarize(r);
  EXPECT_EQ(r.rejected, 1);
  EXPECT_EQ(r.split_streams, 0);
  expect_all_admitted_miss_free(r);
}

TEST(SplitAdmission, SplitConvertsTheRejectionIntoMissFreeAdmission) {
  FarmScenario sc = split_limited_mix();
  sc.sched.split = true;
  const FarmResult r = run_farm(sc, two_proc_config());
  EXPECT_EQ(r.admitted, 3) << summarize(r);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.split_streams, 1);
  EXPECT_EQ(r.total_display_misses, 0);
  EXPECT_EQ(r.total_internal_misses, 0);
  EXPECT_EQ(r.total_skips, 0);
  expect_all_admitted_miss_free(r);

  const StreamOutcome& so = r.streams.at(2);
  ASSERT_EQ(so.spec.id, 2);
  ASSERT_TRUE(so.placement.admitted);
  EXPECT_TRUE(so.placement.split);
  // Head below tail: the handoff source processor has the lower index.
  EXPECT_EQ(so.placement.processor, 0);
  EXPECT_EQ(so.placement.tail_processor, 1);
  // The binary search lands on the largest admissible zero-slack head.
  EXPECT_EQ(so.placement.head_cost, 3 * kM);
  EXPECT_EQ(so.placement.tail_cost, kM);  // migration_cost = 0
  EXPECT_EQ(so.placement.committed_cost,
            so.placement.head_cost + so.placement.tail_cost);
  EXPECT_TRUE(so.placement.migrated);  // frames cross processors

  // The split is visible in the metrics registry.
  const auto& counters = r.metrics.counters();
  const auto it = counters.find("admission_splits");
  ASSERT_NE(it, counters.end());
  EXPECT_EQ(it->second, 1);
}

TEST(SplitAdmission, ResultsAreBitIdenticalAcrossWorkerCountsWithASplit) {
  // The handoff data plane orders split pieces source-before-sink
  // (simulator.h): that must keep the whole report byte-stable no
  // matter how the processors are sharded over workers.
  FarmScenario sc = split_limited_mix();
  sc.sched.split = true;
  FarmConfig one = two_proc_config();
  one.workers = 1;
  FarmConfig two = two_proc_config();
  two.workers = 2;
  EXPECT_EQ(to_json(run_farm(sc, one)), to_json(run_farm(sc, two)));
}

/// A generated churn load (joins, bursts, leaves, mixed geometries and
/// control modes) on three processors, played with every admission
/// feature on: split, renegotiation, restore.
FarmScenario churn_scenario() {
  LoadGenConfig load;
  load.num_streams = 14;
  load.seed = 20260807;
  FarmScenario sc = generate_scenario(load);
  sc.sched.split = true;
  sc.sched.renegotiate = true;
  sc.sched.restore = true;
  return sc;
}

TEST(SplitAdmission, ChurnReportIsPinned) {
  // Every placement, shrink, restore and split of the churn load, and
  // everything the data plane made of them, pinned in one digest.
  // Recorded when admission could still run the exact check-point
  // scan instead of QPA, which produced the same report; re-recorded
  // when the always-zero admission_check_points counter left it.
  FarmConfig cfg;
  cfg.num_processors = 3;
  const FarmResult r = run_farm(churn_scenario(), cfg);
  EXPECT_EQ(r.admitted, 11) << summarize(r);
  EXPECT_EQ(r.rejected, 3);
  EXPECT_EQ(r.split_streams, 0);
  EXPECT_EQ(report_digest(to_json(r)), 0x63bf2ebbbb429e98ULL)
      << std::hex << " got 0x" << report_digest(to_json(r));
  // Admission ran a real demand-test load.
  EXPECT_GT(r.metrics.counters().at("admission_qpa_points"), 0);
}

}  // namespace
}  // namespace qosctrl::farm
