// Pinned scenarios for C=D semi-partitioned admission
// (SchedulingSpec::split) end to end through the farm: a concrete mix
// where splitting converts a rejection into a miss-free admission,
// bit-identical results across worker counts with a split stream in
// play, and a pinned report for a generated churn load.
//
// The mixes are built from the qmin worst case m = 176000 cycles/MB
// (pinned in admission_test.cpp), so the arithmetic below is exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "farm/load_gen.h"
#include "farm/metrics.h"
#include "farm/simulator.h"
#include "obs/buildinfo.h"

namespace qosctrl::farm {
namespace {

constexpr rt::Cycles kM = 176000;  ///< qmin worst case per macroblock

void expect_all_admitted_miss_free(const FarmResult& r) {
  for (const StreamOutcome& so : r.streams) {
    if (!so.placement.admitted) continue;
    EXPECT_EQ(so.display_misses, 0)
        << "stream " << so.spec.id << " missed its display deadline";
    EXPECT_EQ(so.internal_misses, 0)
        << "stream " << so.spec.id << " missed a paced deadline";
    EXPECT_EQ(so.result.total_skips, 0)
        << "stream " << so.spec.id << " dropped a camera frame";
  }
}

FarmConfig two_proc_config() {
  FarmConfig cfg;
  cfg.num_processors = 2;
  // The pinned mix's arithmetic is exact in m; keep the migration
  // surcharge out of it (admission_test.cpp pins the surcharge).
  cfg.admission.migration_cost = 0;
  return cfg;
}

/// The split-limited mix: one controlled incumbent per processor
/// (16x16, T = D = 4m; the 0.25 share cap makes the qmin minimum m
/// its only candidate, so each processor carries utilization 0.25),
/// then a constant-quality newcomer (32x32 at qmin, worst case
/// C = 4m, T = D = 5m, utilization 0.8).  Whole, the newcomer
/// overflows the utilization cap on both processors (0.25 + 0.8 > 1);
/// split, the largest zero-slack head the preemptive demand test
/// admits next to (m, 4m, 4m) is exactly 3m — at t = 4m demand is
/// m + C1, so C1 <= 3m — leaving a tail (4m - 3m, 5m - 3m, 5m) =
/// (m, 2m, 5m) that trivially fits the other processor.
FarmScenario split_limited_mix() {
  FarmScenario sc;
  sc.sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
  for (int i = 0; i < 2; ++i) {
    StreamSpec inc;
    inc.id = i;
    inc.width = 16;
    inc.height = 16;
    inc.num_frames = 4;
    inc.num_scenes = 1;
    inc.frame_period = 4 * kM;
    inc.buffer_capacity = 1;
    sc.streams.push_back(inc);
  }
  StreamSpec n;
  n.id = 2;
  n.width = 32;
  n.height = 32;
  n.num_frames = 4;
  n.num_scenes = 1;
  n.frame_period = 5 * kM;
  n.buffer_capacity = 1;
  n.mode = pipe::ControlMode::kConstantQuality;
  n.constant_quality = 0;
  sc.streams.push_back(n);
  return sc;
}

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

/// FNV-1a of a report with its build-provenance fields (version,
/// compiler, SIMD backend) stripped, so the pin survives rebuilds.
std::uint64_t report_digest(std::string json) {
  const std::string provenance = obs::build_json_fields();
  if (const std::size_t at = json.find(provenance); at != std::string::npos) {
    json.erase(at, provenance.size());
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : json) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(SplitAdmission, ChurnReportIsPinned) {
  // Every placement, shrink, restore and split of the churn load, and
  // everything the data plane made of them, pinned in one digest.
  // Recorded when admission could still run the exact check-point
  // scan instead of QPA, which produced the same report.
  FarmConfig cfg;
  cfg.num_processors = 3;
  const FarmResult r = run_farm(churn_scenario(), cfg);
  EXPECT_EQ(r.admitted, 11) << summarize(r);
  EXPECT_EQ(r.rejected, 3);
  EXPECT_EQ(r.split_streams, 0);
  EXPECT_EQ(report_digest(to_json(r)), 0x715db9b3b2cfb586ULL)
      << std::hex << " got 0x" << report_digest(to_json(r));
  // Admission ran a real demand-test load.
  EXPECT_GT(r.metrics.counters().at("admission_qpa_points"), 0);
}

}  // namespace
}  // namespace qosctrl::farm
