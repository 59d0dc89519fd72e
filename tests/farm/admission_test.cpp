#include "farm/shard.h"

#include <gtest/gtest.h>

#include <limits>

namespace qosctrl::farm {
namespace {

// 64x48 luma -> 12 macroblocks; qmin worst case 176000 cycles/MB.
StreamSpec small_stream(int id, double period_factor = 4.0) {
  StreamSpec s;
  s.id = id;
  s.width = 64;
  s.height = 48;
  s.frame_period = static_cast<rt::Cycles>(
      static_cast<double>(default_frame_period(12)) * period_factor);
  return s;
}

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest() : tables_(platform::figure5_cost_table()) {}
  TableCache tables_;
};

TEST_F(AdmissionTest, MinBudgetMatchesQminWorstCase) {
  // Figure 5 worst cases at qmin sum to 176000 per macroblock.
  EXPECT_EQ(tables_.min_budget(12), 12 * 176000);
  EXPECT_EQ(tables_.worst_case_frame_cost(12, 0), 12 * 176000);
  // At the top level the motion estimator dominates: 1675000 per MB.
  EXPECT_EQ(tables_.worst_case_frame_cost(12, 7), 12 * 1675000);
}

TEST_F(AdmissionTest, EmptyProcessorAdmitsAtRichBudget) {
  ShardedControlPlane ac(2, {}, {}, &tables_);
  const StreamSpec s = small_stream(0);
  const Placement p = ac.admit(s, 0);
  ASSERT_TRUE(p.admitted) << p.reason;
  EXPECT_EQ(p.processor, 0);
  EXPECT_FALSE(p.migrated);
  EXPECT_FALSE(p.degraded);
  EXPECT_GE(p.table_budget, tables_.min_budget(12));
  EXPECT_LE(p.table_budget, latency_of(s));
  EXPECT_EQ(p.table_budget % 12, 0);
  EXPECT_NE(p.system, nullptr);
  // The reserved budget is committed worst-case load.
  EXPECT_GT(ac.committed_utilization(0), 0.0);
  EXPECT_EQ(ac.resident_stream_ids(0).size(), 1u);
  EXPECT_EQ(ac.resident_stream_ids(1).size(), 0u);
}

TEST_F(AdmissionTest, RicherBudgetRaisesInitialQuality) {
  ShardedControlPlane ac(1, {}, {}, &tables_);
  // Slow camera -> latency window allows a rich budget.
  const Placement rich = ac.admit(small_stream(0, 8.0), 0);
  ASSERT_TRUE(rich.admitted);
  ShardedControlPlane ac2(1, {}, {}, &tables_);
  const Placement tight = ac2.admit(small_stream(1, 1.05), 0);
  ASSERT_TRUE(tight.admitted) << tight.reason;
  EXPECT_GT(rich.table_budget, tight.table_budget);
  EXPECT_GE(rich.initial_quality, tight.initial_quality);
  EXPECT_GT(rich.initial_quality, 0u);
}

TEST_F(AdmissionTest, MigratesWhenPreferredProcessorIsFull) {
  ShardedControlPlane ac(2, {}, {}, &tables_);
  // Fill processor 0 (everyone prefers it) until a stream overflows.
  Placement p;
  int i = 0;
  do {
    p = ac.admit(small_stream(i++), 0);
    ASSERT_TRUE(p.admitted) << p.reason;
  } while (p.processor == 0 && i < 32);
  ASSERT_LT(i, 32) << "processor 0 never filled up";
  EXPECT_EQ(p.processor, 1);
  EXPECT_TRUE(p.migrated);
  // Migration is tried before degradation: the overflow stream keeps
  // the rich budget on the empty processor.
  EXPECT_FALSE(p.degraded);
}

TEST_F(AdmissionTest, DegradesBudgetUnderPressureThenRejects) {
  // A ladder with a large top: the first stream takes 4x the minimal
  // budget; once full budgets stop fitting, later streams are admitted
  // at shrunk budgets before anyone is rejected.
  AdmissionConfig cfg;
  cfg.budget_fractions = {};
  cfg.min_budget_multiples = {4.0, 2.0, 1.3};
  cfg.max_stream_share = 1.0;  // isolate the ladder from the share cap
  ShardedControlPlane ac(2, {}, cfg, &tables_);
  int admitted = 0, rejected = 0, degraded = 0;
  rt::Cycles first_budget = 0;
  for (int i = 0; i < 16; ++i) {
    const Placement p = ac.admit(small_stream(i, 6.0), 0);
    if (p.admitted) {
      ++admitted;
      degraded += p.degraded ? 1 : 0;
      if (first_budget == 0) first_budget = p.table_budget;
      EXPECT_LE(p.table_budget, first_budget)
          << "later admissions must not be richer than the first";
    } else {
      ++rejected;
      EXPECT_FALSE(p.reason.empty());
    }
  }
  EXPECT_GT(admitted, 2);
  EXPECT_GT(rejected, 0) << "16 streams must oversubscribe 2 processors";
  EXPECT_GT(degraded, 0) << "pressure must shrink budgets before rejecting";
  // Utilization stays within the cap on both processors.
  EXPECT_LE(ac.committed_utilization(0), 1.0 + 1e-12);
  EXPECT_LE(ac.committed_utilization(1), 1.0 + 1e-12);
}

TEST_F(AdmissionTest, ShareCapLeavesRoomForLaterArrivals) {
  // With the default share cap no single stream may commit more than
  // a quarter of a processor, so at least three streams fit wherever
  // one does at the rich budget.
  ShardedControlPlane ac(1, {}, {}, &tables_);
  int admitted = 0;
  for (int i = 0; i < 8; ++i) {
    admitted += ac.admit(small_stream(i, 6.0), 0).admitted ? 1 : 0;
  }
  EXPECT_GE(admitted, 3);
}

TEST_F(AdmissionTest, ReleaseMakesRoomAgain) {
  ShardedControlPlane ac(1, {}, {}, &tables_);
  std::vector<int> admitted_ids;
  for (int i = 0; i < 12; ++i) {
    if (ac.admit(small_stream(i), 0).admitted) admitted_ids.push_back(i);
  }
  const StreamSpec extra = small_stream(100);
  ASSERT_FALSE(ac.admit(extra, 0).admitted)
      << "the processor should be saturated";
  for (const int id : admitted_ids) ac.release(id, /*now=*/0);
  EXPECT_EQ(ac.resident_stream_ids(0).size(), 0u);
  const Placement p = ac.admit(extra, 0);
  EXPECT_TRUE(p.admitted) << p.reason;
  EXPECT_FALSE(p.degraded) << "an empty processor offers the rich budget";
}

TEST_F(AdmissionTest, ConstantQualityCommitsItsLevelWorstCase) {
  ShardedControlPlane ac(1, {}, {}, &tables_);
  StreamSpec s = small_stream(0, 6.0);
  s.mode = pipe::ControlMode::kConstantQuality;
  s.constant_quality = 2;
  const Placement p = ac.admit(s, 0);
  ASSERT_TRUE(p.admitted) << p.reason;
  EXPECT_EQ(p.committed_cost, tables_.worst_case_frame_cost(12, 2));
  // A high constant level's worst case exceeds the latency window.
  StreamSpec heavy = small_stream(1, 6.0);
  heavy.mode = pipe::ControlMode::kConstantQuality;
  heavy.constant_quality = 7;
  const Placement hp = ac.admit(heavy, 0);
  EXPECT_FALSE(hp.admitted);
}

TEST_F(AdmissionTest, OutOfRangeConstantLevelIsRejectedNotClamped) {
  // The data plane's ConstantController would refuse the level, so
  // admission must too — admit-then-crash is not an option.
  ShardedControlPlane ac(1, {}, {}, &tables_);
  StreamSpec s = small_stream(0, 6.0);
  s.mode = pipe::ControlMode::kConstantQuality;
  s.constant_quality = 9;  // levels are 0..7
  const Placement p = ac.admit(s, 0);
  EXPECT_FALSE(p.admitted);
  EXPECT_NE(p.reason.find("quality level"), std::string::npos);
  s.constant_quality = -1;
  EXPECT_FALSE(ac.admit(s, 0).admitted);
}

TEST_F(AdmissionTest, FeedbackModeAssumesQmaxAndIsRejected) {
  ShardedControlPlane ac(1, {}, {}, &tables_);
  StreamSpec s = small_stream(0, 6.0);
  s.mode = pipe::ControlMode::kFeedback;
  const Placement p = ac.admit(s, 0);
  EXPECT_FALSE(p.admitted)
      << "no compiled occupancy bound -> must assume qmax -> infeasible";
}

TEST_F(AdmissionTest, TableCacheSharesCompiledSystems) {
  ShardedControlPlane ac(2, {}, {}, &tables_);
  ASSERT_TRUE(ac.admit(small_stream(0), 0).admitted);
  const std::size_t after_first = tables_.compiled_systems();
  ASSERT_TRUE(ac.admit(small_stream(1), 1).admitted);
  // Same geometry and budget on the empty second processor: no new
  // compilation.
  EXPECT_EQ(tables_.compiled_systems(), after_first);
}

// 16x16 (1 MB) with a fast camera: commits exactly the qmin worst
// case m = 176000 with D = T = 2m.
StreamSpec tight_stream(int id) {
  StreamSpec s;
  s.id = id;
  s.width = 16;
  s.height = 16;
  s.frame_period = 2 * 176000;
  return s;
}

// 32x32 (4 MB), D = 2T = 16m: its committed qmin worst case 4m is
// pure blocking for the tight stream under non-preemptive EDF.
StreamSpec long_stream(int id) {
  StreamSpec s;
  s.id = id;
  s.width = 32;
  s.height = 32;
  s.frame_period = 8 * 176000;
  s.buffer_capacity = 2;
  return s;
}

TEST_F(AdmissionTest, PreemptivePolicyAdmitsWhatNpRejects) {
  ShardedControlPlane np(1, {}, {}, &tables_);
  ASSERT_TRUE(np.admit(tight_stream(0), 0).admitted);
  const Placement rejected = np.admit(long_stream(1), 0);
  EXPECT_FALSE(rejected.admitted)
      << "np-EDF must reject: blocking 4m + demand m > D = 2m";

  SchedulingSpec sched;
  sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
  ShardedControlPlane pre(1, {}, {}, &tables_, sched);
  ASSERT_TRUE(pre.admit(tight_stream(0), 0).admitted);
  const Placement admitted = pre.admit(long_stream(1), 0);
  EXPECT_TRUE(admitted.admitted) << admitted.reason;
  EXPECT_FALSE(admitted.via_renegotiation);
  // The pair packs the processor exactly: U = 0.5 + 0.5.
  EXPECT_NEAR(pre.committed_utilization(0), 1.0, 1e-12);
}

TEST_F(AdmissionTest, QuantumPolicySitsBetweenNpAndPreemptive) {
  SchedulingSpec tight_quantum;
  tight_quantum.policy.kind = sched::PolicyKind::kQuantumEdf;
  tight_quantum.policy.quantum = 100000;  // < the tight stream's slack
  ShardedControlPlane a(1, {}, {}, &tables_, tight_quantum);
  ASSERT_TRUE(a.admit(tight_stream(0), 0).admitted);
  EXPECT_TRUE(a.admit(long_stream(1), 0).admitted);

  SchedulingSpec coarse_quantum;
  coarse_quantum.policy.kind = sched::PolicyKind::kQuantumEdf;
  coarse_quantum.policy.quantum = 704000;  // one full long frame
  ShardedControlPlane b(1, {}, {}, &tables_, coarse_quantum);
  ASSERT_TRUE(b.admit(tight_stream(0), 0).admitted);
  EXPECT_FALSE(b.admit(long_stream(1), 0).admitted)
      << "a quantum as long as the blocking job restores the np verdict";
}

TEST_F(AdmissionTest, RenegotiationShrinksIncumbentsToAdmitNewcomer) {
  // Three incumbents at the rich 12m budget (T = D = 48m, share 0.25
  // each), then a newcomer needing share 0.5: over the utilization
  // cap, so only shrinking the incumbents can admit it.
  SchedulingSpec sched;
  sched.renegotiate = true;
  ShardedControlPlane ac(1, {}, {}, &tables_, sched);
  StreamSpec incumbent;
  incumbent.width = 32;
  incumbent.height = 32;
  incumbent.frame_period = 48 * 176000;
  for (int i = 0; i < 3; ++i) {
    incumbent.id = i;
    const Placement p = ac.admit(incumbent, 0);
    ASSERT_TRUE(p.admitted) << p.reason;
    EXPECT_EQ(p.table_budget, 12 * 176000);
    EXPECT_FALSE(p.via_renegotiation);
  }
  EXPECT_TRUE(ac.take_renegotiations().empty());

  StreamSpec newcomer;
  newcomer.id = 3;
  newcomer.width = 32;
  newcomer.height = 32;
  newcomer.frame_period = 8 * 176000;
  newcomer.join_time = 123456;
  const Placement p = ac.admit(newcomer, 0);
  ASSERT_TRUE(p.admitted) << p.reason;
  EXPECT_TRUE(p.via_renegotiation);
  EXPECT_EQ(p.table_budget, 4 * 176000);

  const std::vector<BudgetRenegotiation> shrinks =
      ac.take_renegotiations();
  ASSERT_EQ(shrinks.size(), 3u) << "every incumbent had to give";
  for (const BudgetRenegotiation& r : shrinks) {
    EXPECT_EQ(r.effective_time, newcomer.join_time);
    EXPECT_EQ(r.table_budget, 4 * 176000)
        << "shrunk to the qmin worst case";
    EXPECT_EQ(r.committed_cost, r.table_budget);
    ASSERT_NE(r.system, nullptr);
    EXPECT_EQ(r.system->budget, r.table_budget);
  }
  // A second drain is empty, and the shrunk load is what is committed.
  EXPECT_TRUE(ac.take_renegotiations().empty());
  EXPECT_NEAR(ac.committed_utilization(0), 3.0 / 48.0 * 4.0 + 0.5, 1e-12);
}

TEST_F(AdmissionTest, RenegotiationRollsBackWhenEvenQminCannotFit) {
  SchedulingSpec sched;
  sched.renegotiate = true;
  ShardedControlPlane ac(1, {}, {}, &tables_, sched);
  // Two incumbents with no headroom: fast cameras commit exactly qmin.
  for (int i = 0; i < 2; ++i) {
    StreamSpec s = tight_stream(i);
    ASSERT_TRUE(ac.admit(s, 0).admitted);
  }
  const double before = ac.committed_utilization(0);
  const Placement p = ac.admit(tight_stream(2), 0);
  EXPECT_FALSE(p.admitted);
  EXPECT_TRUE(ac.take_renegotiations().empty());
  EXPECT_DOUBLE_EQ(ac.committed_utilization(0), before)
      << "a failed renegotiation must leave commitments untouched";
}

/// A two-rung ladder (60% of the latency window, then the qmin
/// minimum) with a controlled filler at the rich rung on processor 0:
/// a newcomer preferring 0 cannot take the rich rung there (1.2x
/// utilization), so migration-vs-degradation is decided by the
/// surcharge alone.
AdmissionConfig two_rung_config(rt::Cycles migration_cost) {
  AdmissionConfig cfg;
  cfg.budget_fractions = {0.6};
  cfg.min_budget_multiples = {};
  cfg.max_stream_share = 1.0;
  cfg.migration_cost = migration_cost;
  return cfg;
}

TEST_F(AdmissionTest, MigrationChargesTheSurchargeOnOffPreferredHosts) {
  ShardedControlPlane ac(2, {}, two_rung_config(120000), &tables_);
  ASSERT_TRUE(ac.admit(small_stream(0, 4.0), 0).admitted);

  const Placement p = ac.admit(small_stream(1, 4.0), 0);
  ASSERT_TRUE(p.admitted) << p.reason;
  EXPECT_EQ(p.processor, 1);
  EXPECT_TRUE(p.migrated);
  EXPECT_FALSE(p.degraded);
  // Controlled streams commit their table budget; a migrated one
  // commits budget + surcharge.
  EXPECT_EQ(p.committed_cost, p.table_budget + 120000);
}

TEST_F(AdmissionTest, ExpensiveMigrationMakesLocalDegradationWin) {
  // Migration now costs more than the whole latency window: no
  // candidate is schedulable off-processor, so the newcomer degrades
  // locally to the qmin rung instead — the trade-off the cost term
  // exists to expose (with a zero surcharge it would migrate rich,
  // as the test above pins).
  ShardedControlPlane ac(2, {}, two_rung_config(20000000), &tables_);
  ASSERT_TRUE(ac.admit(small_stream(0, 4.0), 0).admitted);

  const Placement p = ac.admit(small_stream(1, 4.0), 0);
  ASSERT_TRUE(p.admitted) << p.reason;
  EXPECT_EQ(p.processor, 0);
  EXPECT_FALSE(p.migrated);
  EXPECT_TRUE(p.degraded);
  EXPECT_EQ(p.committed_cost, p.table_budget);  // no surcharge at home
  EXPECT_EQ(p.table_budget, tables_.min_budget(12));
}

TEST_F(AdmissionTest, RestorePassGrowsShrunkIncumbentsBackOnRelease) {
  SchedulingSpec sched;
  sched.renegotiate = true;
  sched.restore = true;
  ShardedControlPlane ac(1, {}, {}, &tables_, sched);
  // Three rich incumbents (share 0.25 each), then a newcomer whose
  // qmin worst case only fits after incumbents shrink.
  rt::Cycles rich_budget = 0;
  for (int i = 0; i < 3; ++i) {
    const Placement p = ac.admit(small_stream(i, 4.0), 0);
    ASSERT_TRUE(p.admitted) << p.reason;
    rich_budget = p.table_budget;
  }
  const double before = ac.committed_utilization(0);
  const Placement newcomer = ac.admit(small_stream(3, 3.0), 0);
  ASSERT_TRUE(newcomer.admitted) << newcomer.reason;
  ASSERT_TRUE(newcomer.via_renegotiation);
  const std::vector<BudgetRenegotiation> shrinks =
      ac.take_renegotiations();
  ASSERT_FALSE(shrinks.empty());
  for (const BudgetRenegotiation& r : shrinks) {
    EXPECT_FALSE(r.grow);
    EXPECT_LT(r.table_budget, rich_budget);
  }

  // The newcomer departs: the restore pass walks every shrunk
  // incumbent back up the certified ladder to the budget it was
  // admitted at, stamped with the departure time.
  ac.release(3, /*now=*/777);
  const std::vector<BudgetRenegotiation> grows = ac.take_renegotiations();
  ASSERT_EQ(grows.size(), shrinks.size());
  for (const BudgetRenegotiation& r : grows) {
    EXPECT_TRUE(r.grow);
    EXPECT_EQ(r.effective_time, 777);
    EXPECT_EQ(r.table_budget, rich_budget);
    ASSERT_NE(r.system, nullptr);
    EXPECT_EQ(r.system->budget, r.table_budget);
  }
  EXPECT_DOUBLE_EQ(ac.committed_utilization(0), before)
      << "restore must return exactly to the pre-newcomer commitment";
  // Without the restore flag, a release leaves budgets shrunk.
  SchedulingSpec no_restore;
  no_restore.renegotiate = true;
  TableCache tables2(platform::figure5_cost_table());
  ShardedControlPlane ac2(1, {}, {}, &tables2, no_restore);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ac2.admit(small_stream(i, 4.0), 0).admitted);
  }
  ASSERT_TRUE(ac2.admit(small_stream(3, 3.0), 0).admitted);
  ac2.take_renegotiations();
  ac2.release(3, 777);
  EXPECT_TRUE(ac2.take_renegotiations().empty());
  EXPECT_LT(ac2.committed_utilization(0), before);
}

TEST_F(AdmissionTest, DeterministicVerdicts) {
  ShardedControlPlane a(2, {}, {}, &tables_);
  TableCache tables2(platform::figure5_cost_table());
  ShardedControlPlane b(2, {}, {}, &tables2);
  for (int i = 0; i < 10; ++i) {
    const Placement pa = a.admit(small_stream(i), i % 2);
    const Placement pb = b.admit(small_stream(i), i % 2);
    EXPECT_EQ(pa.admitted, pb.admitted);
    EXPECT_EQ(pa.processor, pb.processor);
    EXPECT_EQ(pa.table_budget, pb.table_budget);
    EXPECT_EQ(pa.initial_quality, pb.initial_quality);
  }
}

TEST_F(AdmissionTest, HugeLadderEntriesOfferNoCandidate) {
  // A rung far past the latency window is dropped before it reaches
  // the integer cast: the verdicts match a ladder without it.
  AdmissionConfig huge;
  huge.budget_fractions.push_back(1e300);
  huge.min_budget_multiples.push_back(1e30);
  ShardedControlPlane a(2, {}, huge, &tables_);
  ShardedControlPlane b(2, {}, {}, &tables_);
  for (int i = 0; i < 6; ++i) {
    const Placement pa = a.admit(small_stream(i), i % 2);
    const Placement pb = b.admit(small_stream(i), i % 2);
    EXPECT_EQ(pa.admitted, pb.admitted);
    EXPECT_EQ(pa.processor, pb.processor);
    EXPECT_EQ(pa.table_budget, pb.table_budget);
  }
}

TEST_F(AdmissionTest, RejectsNonFiniteOrNonPositiveLadderEntries) {
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), 0.0, -0.5}) {
    AdmissionConfig fractions;
    fractions.budget_fractions = {0.85, bad};
    EXPECT_DEATH(ShardedControlPlane(1, {}, fractions, &tables_),
                 "budget ladder");
    AdmissionConfig multiples;
    multiples.min_budget_multiples = {bad};
    EXPECT_DEATH(ShardedControlPlane(1, {}, multiples, &tables_),
                 "budget ladder");
  }
}

}  // namespace
}  // namespace qosctrl::farm
