#include "farm/shard.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

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
  // A slow camera (12x the default pacing) lets the share cap admit the
  // ladder's top: the first stream takes 3x the minimal budget; once
  // full budgets stop fitting, later streams are admitted at shrunk
  // budgets before anyone is rejected.
  ShardedControlPlane ac(2, {}, {}, &tables_);
  int admitted = 0, rejected = 0, degraded = 0;
  rt::Cycles first_budget = 0;
  for (int i = 0; i < 16; ++i) {
    const Placement p = ac.admit(small_stream(i, 12.0), 0);
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
  EXPECT_EQ(first_budget, 3 * tables_.min_budget(12));
  EXPECT_GT(admitted, 2);
  EXPECT_GT(rejected, 0) << "16 streams must oversubscribe 2 processors";
  EXPECT_GT(degraded, 0) << "pressure must shrink budgets before rejecting";
  // Utilization stays within the cap on both processors.
  EXPECT_LE(ac.committed_utilization(0), 1.0 + 1e-12);
  EXPECT_LE(ac.committed_utilization(1), 1.0 + 1e-12);
}

TEST_F(AdmissionTest, ShareCapLeavesRoomForLaterArrivals) {
  // The share cap lets no single stream commit more than a quarter of
  // a processor, so at least three streams fit wherever one does at
  // the rich budget.  At 6x the default pacing 2x the minimal budget
  // would be 30% of the period: the rich rung is 1.5x.
  ShardedControlPlane ac(1, {}, {}, &tables_);
  int admitted = 0;
  for (int i = 0; i < 8; ++i) {
    const StreamSpec s = small_stream(i, 6.0);
    const Placement p = ac.admit(s, 0);
    if (!p.admitted) continue;
    ++admitted;
    EXPECT_LE(4 * p.committed_cost, period_of(s));
    if (admitted == 1) {
      EXPECT_EQ(p.table_budget, 3 * tables_.min_budget(12) / 2);
    }
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

/// Slow cameras (12x the default pacing) take the rich rung, 3x the
/// qmin minimum and 22% of the period.  Four of them fill processor 0
/// to 89%, so a fifth preferring 0 cannot take the rich rung there and
/// migration-vs-degradation is decided by the surcharge alone.
constexpr double kSlowCamera = 12.0;

void fill_processor_0(ShardedControlPlane& ac) {
  for (int i = 0; i < 4; ++i) {
    const Placement p = ac.admit(small_stream(i, kSlowCamera), 0);
    ASSERT_TRUE(p.admitted) << p.reason;
    ASSERT_EQ(p.processor, 0);
    ASSERT_FALSE(p.degraded);
  }
}

TEST_F(AdmissionTest, MigrationChargesTheSurchargeOnOffPreferredHosts) {
  ShardedControlPlane ac(2, {}, {.migration_cost = 120000}, &tables_);
  fill_processor_0(ac);

  const Placement p = ac.admit(small_stream(4, kSlowCamera), 0);
  ASSERT_TRUE(p.admitted) << p.reason;
  EXPECT_EQ(p.processor, 1);
  EXPECT_TRUE(p.migrated);
  EXPECT_FALSE(p.degraded);
  // Controlled streams commit their table budget; a migrated one
  // commits budget + surcharge.
  EXPECT_EQ(p.committed_cost, p.table_budget + 120000);
}

TEST_F(AdmissionTest, ExpensiveMigrationMakesLocalDegradationWin) {
  // Migration now costs the whole latency window: no candidate is
  // schedulable off-processor, so the newcomer degrades locally to the
  // richest rung that still fits there (1.25x the qmin minimum) — the
  // trade-off the cost term exists to expose (with a small surcharge
  // it migrates rich, as the test above pins).
  const StreamSpec newcomer = small_stream(4, kSlowCamera);
  ShardedControlPlane ac(2, {}, {.migration_cost = latency_of(newcomer)},
                         &tables_);
  fill_processor_0(ac);

  const Placement p = ac.admit(newcomer, 0);
  ASSERT_TRUE(p.admitted) << p.reason;
  EXPECT_EQ(p.processor, 0);
  EXPECT_FALSE(p.migrated);
  EXPECT_TRUE(p.degraded);
  EXPECT_EQ(p.committed_cost, p.table_budget);  // no surcharge at home
  EXPECT_EQ(p.table_budget, 5 * tables_.min_budget(12) / 4);
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

// The budget ladders of the load generator's geometries at its period
// factors, for K = 1 and 2: every rung of every ladder is pinned.
TEST_F(AdmissionTest, LadderIsPinned) {
  ShardedControlPlane ac(1, {}, {}, &tables_);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const auto& [w, ht] : {std::pair{64, 48}, {80, 64}, {96, 80}}) {
    const int mb = (w / 16) * (ht / 16);
    for (const double f : {3.0, 4.0, 6.0}) {
      const auto period = static_cast<rt::Cycles>(std::llround(
          static_cast<double>(default_frame_period(mb)) * f));
      for (const int k : {1, 2}) {
        const std::vector<CertifiedRung> ladder =
            ac.certified_ladder(mb, period * k, period);
        ASSERT_FALSE(ladder.empty());
        for (const CertifiedRung& r : ladder) {
          EXPECT_LE(r.table_budget, period * k);
          EXPECT_EQ(r.system->budget, r.table_budget);
          for (int byte = 0; byte < 8; ++byte) {
            h ^= static_cast<std::uint64_t>(r.table_budget) >> (8 * byte) &
                 0xffU;
            h *= 1099511628211ULL;  // FNV prime
          }
        }
      }
    }
  }
  EXPECT_EQ(h, 0x38854d11e0d0e4c5ULL) << std::hex << " got 0x" << h;
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

TEST_F(AdmissionTest, RungsPastTheWindowAreNotOffered) {
  // At the default pacing with K = 1 the qmin minimum is ~89% of the
  // window, so the ladder's top, 3x the minimum, lies far past it: no
  // richer rung is offered, and the minimum is the whole ladder.
  ShardedControlPlane ac(1, {}, {}, &tables_);
  for (const int mb : {12, 20, 30}) {
    const rt::Cycles window = default_frame_period(mb);
    ASSERT_GT(3 * tables_.min_budget(mb), window);
    const std::vector<CertifiedRung> ladder =
        ac.certified_ladder(mb, window, window);
    ASSERT_EQ(ladder.size(), 1u) << mb << " macroblocks";
    EXPECT_EQ(ladder.front().table_budget, tables_.min_budget(mb));
  }
}

// The qmin minimum is offered while it fits the window: at a window
// exactly as long it is the whole ladder, and the stream is admitted at
// it; one cycle shorter, nothing is offered and the stream is refused.
TEST_F(AdmissionTest, AWindowAsLongAsTheMinimumAdmitsAtTheMinimum) {
  for (const int mb : {12, 20}) {
    const rt::Cycles min_budget = tables_.min_budget(mb);
    ShardedControlPlane ac(1, {}, {}, &tables_);
    const std::vector<CertifiedRung> ladder =
        ac.certified_ladder(mb, min_budget, min_budget);
    ASSERT_EQ(ladder.size(), 1u) << mb << " macroblocks";
    EXPECT_EQ(ladder.front().table_budget, min_budget);
    EXPECT_TRUE(ac.certified_ladder(mb, min_budget - 1, min_budget - 1)
                    .empty());
  }
  StreamSpec s = small_stream(0);
  s.frame_period = tables_.min_budget(12);
  ShardedControlPlane ac(1, {}, {}, &tables_);
  const Placement p = ac.admit(s, 0);
  ASSERT_TRUE(p.admitted) << p.reason;
  EXPECT_EQ(p.table_budget, tables_.min_budget(12));
  s.id = 1;
  s.frame_period -= 1;
  ShardedControlPlane fresh(1, {}, {}, &tables_);
  EXPECT_FALSE(fresh.admit(s, 0).admitted);
}

}  // namespace
}  // namespace qosctrl::farm
