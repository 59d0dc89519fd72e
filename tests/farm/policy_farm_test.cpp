// Pinned scenarios for the pluggable scheduling layer:
//
//  * a concrete stream mix that non-preemptive EDF rejects (blocking
//    term) and preemptive EDF admits — and runs miss-free;
//  * quantum-sliced EDF between the two;
//  * online budget renegotiation converting a rejection into an
//    admission with zero misses on every admitted stream;
//  * bit-identical results across worker counts for every policy.
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

/// The blocking-limited mix: per processor, one tight stream (16x16,
/// C = m, D = T = 2m) plus one long stream (32x32, C = 4m,
/// D = 2T = 2 * wide_period).  np-EDF rejects the long stream — at
/// t = D_tight: demand m + blocking 4m > 2m — while the preemptive
/// demand test accepts the pair (exactly at utilization 1 for the
/// default wide_period = 8m).
FarmScenario blocking_limited_mix(rt::Cycles wide_period = 8 * kM) {
  FarmScenario sc;
  for (int i = 0; i < 2; ++i) {
    StreamSpec tight;
    tight.id = i;
    tight.width = 16;
    tight.height = 16;
    tight.num_frames = 8;
    tight.num_scenes = 1;
    tight.frame_period = 2 * kM;
    tight.buffer_capacity = 1;
    sc.streams.push_back(tight);
  }
  for (int i = 0; i < 2; ++i) {
    StreamSpec wide;
    wide.id = 2 + i;
    wide.width = 32;
    wide.height = 32;
    wide.num_frames = 4;
    wide.num_scenes = 1;
    wide.frame_period = wide_period;
    wide.buffer_capacity = 2;  // D = 2 * wide_period
    sc.streams.push_back(wide);
  }
  sc.sched.policy.context_switch_cost = 0;  // exact U = 1 packing
  return sc;
}

TEST(PolicyFarm, NpRejectsTheBlockingLimitedMix) {
  FarmScenario sc = blocking_limited_mix();
  sc.sched.policy.kind = sched::PolicyKind::kNonPreemptiveEdf;
  const FarmResult r = run_farm(sc, two_proc_config());
  // The tight streams take one processor each; neither processor can
  // then host a long stream non-preemptively.
  EXPECT_EQ(r.admitted, 2) << summarize(r);
  EXPECT_EQ(r.rejected, 2);
  EXPECT_EQ(r.total_preemptions, 0);
  expect_all_admitted_miss_free(r);
}

TEST(PolicyFarm, PreemptiveAdmitsTheBlockingLimitedMixMissFree) {
  FarmScenario sc = blocking_limited_mix();
  sc.sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
  const FarmResult r = run_farm(sc, two_proc_config());
  EXPECT_EQ(r.admitted, 4) << summarize(r);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.total_display_misses, 0);
  EXPECT_EQ(r.total_internal_misses, 0);
  EXPECT_EQ(r.total_skips, 0);
  expect_all_admitted_miss_free(r);
  // The tight streams' arrivals actually displace in-flight long
  // frames (pinned: the mix is built so they overlap).
  EXPECT_GT(r.total_preemptions, 0) << summarize(r);
}

TEST(PolicyFarm, QuantumAdmitsTheMixAndCapsPreemptionFrequency) {
  FarmScenario sc = blocking_limited_mix();
  sc.sched.policy.kind = sched::PolicyKind::kQuantumEdf;
  // Blocking capped at 100000 < the tight stream's slack m; admission
  // passes and preemption waits for quantum boundaries.
  sc.sched.policy.quantum = 100000;
  const FarmResult r = run_farm(sc, two_proc_config());
  EXPECT_EQ(r.admitted, 4) << summarize(r);
  EXPECT_EQ(r.total_display_misses, 0);
  EXPECT_EQ(r.total_internal_misses, 0);
  expect_all_admitted_miss_free(r);

  FarmScenario pre = blocking_limited_mix();
  pre.sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
  const FarmResult rp = run_farm(pre, two_proc_config());
  // Deferring preemption to quantum boundaries never preempts more
  // often than preempting immediately does.
  EXPECT_LE(r.total_preemptions, rp.total_preemptions);
}

TEST(PolicyFarm, ContextSwitchCostIsChargedPerPreemption) {
  // A slightly slower long stream (U = 0.9 per processor) leaves room
  // for the admission test's 2-switch-per-job cost inflation.
  FarmScenario sc = blocking_limited_mix(10 * kM);
  sc.sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
  sc.sched.policy.context_switch_cost = 5000;
  const FarmResult r = run_farm(sc, two_proc_config());
  EXPECT_EQ(r.admitted, 4) << summarize(r);
  ASSERT_GT(r.total_preemptions, 0) << summarize(r);
  // Two switches (out + in) per preemption, every cycle accounted.
  EXPECT_EQ(r.total_overhead_cycles, 2 * 5000 * r.total_preemptions);
  expect_all_admitted_miss_free(r);
}

/// The renegotiation scenario: per processor, three incumbents at a
/// rich 12m-per-frame budget (mb = 4, T = D = 48m, share 0.25 each)
/// followed by a newcomer needing share 0.5 (C = 4m, T = D = 8m).
/// Without renegotiation the newcomer overflows the utilization cap
/// on every processor; with it the incumbents shrink toward their
/// qmin worst case 4m until the newcomer fits.
FarmScenario renegotiation_scenario(bool renegotiate) {
  FarmScenario sc;
  for (int i = 0; i < 6; ++i) {
    StreamSpec v;
    v.id = i;
    v.width = 32;
    v.height = 32;
    v.num_frames = 4;
    v.num_scenes = 1;
    v.frame_period = 48 * kM;  // rich candidate 12m within share cap
    v.buffer_capacity = 1;
    sc.streams.push_back(v);
  }
  for (int i = 0; i < 2; ++i) {
    StreamSpec n;
    n.id = 6 + i;
    n.width = 32;
    n.height = 32;
    n.num_frames = 6;
    n.num_scenes = 1;
    n.frame_period = 8 * kM;
    n.buffer_capacity = 1;
    // Join between the incumbents' first and second frames, when the
    // processors are idle.
    n.join_time = 20 * kM;
    sc.streams.push_back(n);
  }
  sc.sched.renegotiate = renegotiate;
  return sc;
}

TEST(PolicyFarm, WithoutRenegotiationTheNewcomersAreRejected) {
  const FarmResult r =
      run_farm(renegotiation_scenario(false), two_proc_config());
  EXPECT_EQ(r.admitted, 6) << summarize(r);
  EXPECT_EQ(r.rejected, 2);
  EXPECT_EQ(r.admitted_via_renegotiation, 0);
  EXPECT_EQ(r.renegotiated_streams, 0);
  expect_all_admitted_miss_free(r);
}

TEST(PolicyFarm, RenegotiationConvertsRejectionIntoAdmissionMissFree) {
  const FarmResult r =
      run_farm(renegotiation_scenario(true), two_proc_config());
  EXPECT_EQ(r.admitted, 8) << summarize(r);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.admitted_via_renegotiation, 2);
  // Every incumbent on both processors gave up budget.
  EXPECT_EQ(r.renegotiated_streams, 6);
  EXPECT_EQ(r.total_display_misses, 0);
  EXPECT_EQ(r.total_internal_misses, 0);
  EXPECT_EQ(r.total_skips, 0);
  expect_all_admitted_miss_free(r);
  for (const StreamOutcome& so : r.streams) {
    ASSERT_TRUE(so.placement.admitted);
    if (so.renegotiated) {
      // Shrunk to the qmin worst case, via a fresh budget epoch.
      ASSERT_GE(so.epochs.size(), 2u);
      EXPECT_EQ(so.epochs.back().table_budget, 4 * kM);
      EXPECT_LT(so.epochs.back().table_budget,
                so.placement.table_budget);
    }
  }
}

TEST(PolicyFarm, RestorePassGrowsIncumbentsBackAfterTheNewcomersLeave) {
  // The renegotiation scenario's newcomers (6 frames at 8m) leave at
  // 68m, while the incumbents (4 frames at 48m) still have frames
  // arriving at 96m and 144m.  With the restore pass those frames are
  // paced over the re-grown 12m tables instead of the qmin 4m ones.
  FarmScenario sc = renegotiation_scenario(true);
  sc.sched.restore = true;
  const FarmResult r = run_farm(sc, two_proc_config());
  EXPECT_EQ(r.admitted, 8) << summarize(r);
  EXPECT_EQ(r.renegotiated_streams, 6);
  EXPECT_EQ(r.restored_streams, 6);
  expect_all_admitted_miss_free(r);
  for (const StreamOutcome& so : r.streams) {
    if (!so.renegotiated) continue;
    EXPECT_TRUE(so.restored);
    // Epoch history: admitted rich, shrunk to qmin, grown back.
    ASSERT_GE(so.epochs.size(), 3u);
    EXPECT_EQ(so.epochs.back().table_budget, so.placement.table_budget);
    EXPECT_LT(so.epochs[1].table_budget, so.epochs.back().table_budget);
  }
  // The re-grown tables buy back quality on the incumbents' remaining
  // frames: fleet mean quality must not drop vs leaving them shrunk.
  const FarmResult shrunk =
      run_farm(renegotiation_scenario(true), two_proc_config());
  EXPECT_GT(r.fleet_mean_quality, shrunk.fleet_mean_quality)
      << summarize(r) << summarize(shrunk);
}

TEST(PolicyFarm, ResultsAreBitIdenticalAcrossWorkerCountsForEveryPolicy) {
  std::vector<FarmScenario> scenarios;
  {
    FarmScenario pre = blocking_limited_mix(10 * kM);
    pre.sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
    pre.sched.policy.context_switch_cost = 5000;
    scenarios.push_back(pre);
  }
  {
    FarmScenario q = blocking_limited_mix();
    q.sched.policy.kind = sched::PolicyKind::kQuantumEdf;
    q.sched.policy.quantum = 100000;
    scenarios.push_back(q);
  }
  scenarios.push_back(blocking_limited_mix());  // np
  scenarios.push_back(renegotiation_scenario(true));
  for (const FarmScenario& sc : scenarios) {
    FarmConfig one = two_proc_config();
    one.workers = 1;
    FarmConfig two = two_proc_config();
    two.workers = 2;
    EXPECT_EQ(to_json(run_farm(sc, one)), to_json(run_farm(sc, two)))
        << "policy " << sched::policy_name(sc.sched.policy.kind);
  }
}

TEST(PolicyFarm, GeneratedLoadStaysSafeUnderEveryPolicy) {
  // Random-ish churn under each policy: admitted controlled streams
  // never miss, whatever the run-queue semantics.
  LoadGenConfig lg;
  lg.num_streams = 8;
  lg.resolutions = {{32, 32}};
  lg.resolution_weights = {1.0};
  lg.min_frames = 4;
  lg.max_frames = 6;
  lg.seed = 5;
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kNonPreemptiveEdf,
        sched::PolicyKind::kPreemptiveEdf,
        sched::PolicyKind::kQuantumEdf}) {
    FarmScenario sc = generate_scenario(lg);
    sc.sched.policy.kind = kind;
    sc.sched.policy.context_switch_cost = platform::kContextSwitchCycles;
    sc.sched.policy.quantum = 1000000;
    sc.sched.renegotiate = true;
    const FarmResult r = run_farm(sc, two_proc_config());
    EXPECT_EQ(r.total_streams, 8);
    for (const StreamOutcome& so : r.streams) {
      if (!so.placement.admitted) continue;
      if (so.spec.mode != pipe::ControlMode::kControlled) continue;
      EXPECT_EQ(so.display_misses, 0)
          << sched::policy_name(kind) << " stream " << so.spec.id;
      EXPECT_EQ(so.result.total_deadline_misses, 0)
          << sched::policy_name(kind) << " stream " << so.spec.id;
    }
  }
}

}  // namespace
}  // namespace qosctrl::farm
