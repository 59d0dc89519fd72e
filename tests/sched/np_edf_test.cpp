// Non-preemptive EDF admission through the np scheduling policy (the
// farm's production path), plus the exact scan's conservative caps.
#include "sched/np_edf.h"

#include <gtest/gtest.h>

#include "sched/policy.h"

namespace qosctrl::sched {
namespace {

bool np_schedulable(const std::vector<NpTask>& tasks) {
  return SchedPolicy(PolicyParams{}).schedulable(tasks);
}

TEST(NpEdf, EmptySetIsSchedulable) {
  EXPECT_TRUE(np_schedulable({}));
}

TEST(NpEdf, SingleTaskFittingItsDeadline) {
  EXPECT_TRUE(np_schedulable({{30, 100, 100}}));
  EXPECT_TRUE(np_schedulable({{100, 100, 100}}));  // U == 1, C == D
}

TEST(NpEdf, CostBeyondDeadlineFails) {
  EXPECT_FALSE(np_schedulable({{120, 100, 200}}));
}

TEST(NpEdf, OverUtilizationFails) {
  EXPECT_FALSE(np_schedulable({{60, 100, 100}, {60, 100, 100}}));
  EXPECT_NEAR(np_utilization({{60, 100, 100}, {60, 100, 100}}), 1.2, 1e-12);
}

TEST(NpEdf, TwoHarmonicTasksFit) {
  // U = 0.5 + 0.25, short task deadline leaves room for blocking.
  EXPECT_TRUE(np_schedulable({{50, 100, 100}, {50, 200, 200}}));
}

TEST(NpEdf, BlockingTermRejectsLongLowPriorityJob) {
  // A tight task alone is fine, but a long job with a later deadline
  // can block it right after its release: 90 (blocking) + 20 > 100.
  EXPECT_TRUE(np_schedulable({{20, 100, 100}}));
  EXPECT_FALSE(np_schedulable({{20, 100, 100}, {90, 1000, 1000}}));
  // Preemptive EDF would accept this set (U = 0.29): the rejection is
  // exactly the non-preemptive blocking penalty.
}

TEST(NpEdf, DeadlineLargerThanPeriod) {
  // The farm's K > 1 streams: D = K * P.  Three tasks, each C = 0.6 P,
  // D = 2 P: infeasible preemptively (U = 1.8) -> must reject.
  EXPECT_FALSE(np_schedulable(
      {{60, 200, 100}, {60, 200, 100}, {60, 200, 100}}));
  // Two of them: U = 1.2 -> reject.
  EXPECT_FALSE(np_schedulable({{60, 200, 100}, {60, 200, 100}}));
  // C = 0.4 P each, D = 2 P, U = 0.8: the extra deadline slack absorbs
  // the blocking -> accept.
  EXPECT_TRUE(np_schedulable({{40, 200, 100}, {40, 200, 100}}));
}

TEST(NpEdf, ManySmallTasksPack) {
  std::vector<NpTask> tasks(8, NpTask{10, 100, 100});  // U = 0.8
  EXPECT_TRUE(np_schedulable(tasks));
  tasks.assign(11, NpTask{10, 100, 100});  // U = 1.1
  EXPECT_FALSE(np_schedulable(tasks));
}

TEST(NpEdf, SufficiencyOnKnownBoundaryCase) {
  // Jeffay's classic example shape: C = {1, 3}, T = {4, 6}, D = T.
  // Demand at t = 6: 1*ceil... dbf = 1 (task 1 job) + 3 = 4; plus
  // blocking at t = 4 from the 3-unit task: 1 + 3 <= 4 -> schedulable.
  EXPECT_TRUE(np_schedulable({{1, 4, 4}, {3, 6, 6}}));
  // Tighten the long task: C = 4 -> at t = 4 blocking 4 + demand 1 > 4.
  EXPECT_FALSE(np_schedulable({{1, 4, 4}, {4, 6, 6}}));
}

TEST(NpEdf, UtilizationAccessor) {
  EXPECT_DOUBLE_EQ(np_utilization({}), 0.0);
  EXPECT_NEAR(np_utilization({{25, 100, 100}, {50, 400, 200}}), 0.5, 1e-12);
}

// The scan caps are API (sched/np_edf.h): pathological inputs make the
// test FAIL CONSERVATIVELY rather than scan forever.  These pins keep
// a future refactor from silently loosening that contract — if either
// cap moves, the inputs below must be revisited along with the header
// doc.
TEST(NpEdf, CheckPointCapFailsConservatively) {
  // Trivially schedulable (U ~ 0.5), but a short-period task under a
  // huge-deadline task scatters ~5e8 deadline points across the
  // horizon — far beyond kEdfMaxCheckPoints, so the scan gives up and
  // rejects.  Sanity: shrinking the huge deadline back into a small
  // horizon restores acceptance.
  const rt::Cycles huge = 1'000'000'000;
  EXPECT_FALSE(edf_demand_schedulable({{1, 2, 2}, {1, huge, huge}},
                                      kUncappedBlocking));
  EXPECT_FALSE(edf_demand_schedulable({{1, 2, 2}, {1, huge, huge}}, 0));
  EXPECT_TRUE(edf_demand_schedulable({{1, 2, 2}, {1, 100, 100}},
                                     kUncappedBlocking));
  // The cap itself is part of the contract.
  EXPECT_EQ(kEdfMaxCheckPoints, std::size_t{1} << 16);
  EXPECT_EQ(kEdfMaxBusyIterations, 256);
}

TEST(NpEdf, BusyPeriodCapFailsConservatively) {
  // Utilization just under 1: the dense task leaves one idle cycle
  // per 10000-cycle period, so the 300-cycle job's backlog drains one
  // cycle per fixpoint step — ~299 iterations to converge, beyond
  // kEdfMaxBusyIterations -> conservative reject, even though the
  // demand criterion (given unlimited analysis time) would accept.
  const std::vector<NpTask> pathological = {
      {9'999, 10'000, 10'000},
      {300, 3'100'000, 3'100'000},
  };
  EXPECT_LT(np_utilization(pathological), 1.0);
  EXPECT_FALSE(edf_demand_schedulable(pathological, kUncappedBlocking));
  EXPECT_FALSE(edf_demand_schedulable(pathological, 0));
  // QPA shares the busy-period fixpoint and its cap.
  EXPECT_FALSE(np_schedulable(pathological));
}

}  // namespace
}  // namespace qosctrl::sched
