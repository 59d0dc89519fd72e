// Preemptive and quantum-sliced EDF admission, context-switch
// inflation and run-queue preemption points, all through
// sched::SchedPolicy — the farm's production path.
#include "sched/policy.h"

#include <gtest/gtest.h>

namespace qosctrl::sched {
namespace {

bool np_edf(const std::vector<NpTask>& tasks) {
  return SchedPolicy(PolicyParams{}).schedulable(tasks);
}

bool preemptive_edf(const std::vector<NpTask>& tasks,
                    rt::Cycles context_switch = 0) {
  return SchedPolicy({PolicyKind::kPreemptiveEdf, context_switch, 0})
      .schedulable(tasks);
}

bool quantum_edf(const std::vector<NpTask>& tasks, rt::Cycles quantum,
                 rt::Cycles context_switch = 0) {
  return SchedPolicy({PolicyKind::kQuantumEdf, context_switch, quantum})
      .schedulable(tasks);
}

TEST(PreemptiveEdf, EmptySetIsSchedulable) {
  EXPECT_TRUE(preemptive_edf({}));
  EXPECT_TRUE(quantum_edf({}, 10));
}

TEST(PreemptiveEdf, AdmitsTheClassicBlockingRejection) {
  // The np_edf_test pinned case: a long later-deadline job blocks a
  // tight task under non-preemptive EDF (90 + 20 > 100), but the mix
  // is only U = 0.29 — preemptive EDF admits it.
  const std::vector<NpTask> mix = {{20, 100, 100}, {90, 1000, 1000}};
  EXPECT_FALSE(np_edf(mix));
  EXPECT_TRUE(preemptive_edf(mix));
  // A quantum no larger than the tight task's slack also admits it
  // (blocking capped at 80 = 100 - 20), while a quantum as long as the
  // blocking job restores the np rejection.
  EXPECT_TRUE(quantum_edf(mix, 80));
  EXPECT_FALSE(quantum_edf(mix, 90));
}

TEST(PreemptiveEdf, ExactAtFullUtilization) {
  // U = 1 implicit-deadline sets are exactly schedulable preemptively.
  EXPECT_TRUE(preemptive_edf({{1, 2, 2}, {4, 8, 8}}));
  EXPECT_FALSE(np_edf({{1, 2, 2}, {4, 8, 8}}));
}

TEST(PreemptiveEdf, OverUtilizationFails) {
  EXPECT_FALSE(preemptive_edf({{60, 100, 100}, {60, 100, 100}}));
  EXPECT_FALSE(quantum_edf({{60, 100, 100}, {60, 100, 100}}, 5));
}

TEST(PreemptiveEdf, ConstrainedDeadlineDemand) {
  // D < T: dbf at t = 5 is 3 + 3 > 5 -> reject even though U = 0.6.
  EXPECT_FALSE(preemptive_edf({{3, 5, 10}, {3, 5, 10}}));
  EXPECT_TRUE(preemptive_edf({{3, 6, 10}, {3, 10, 10}}));
}

TEST(PreemptiveEdf, ContextSwitchOverheadInflatesCosts) {
  // 10 tasks of C = 9, T = D = 100 plus one slack task with a longer
  // deadline: charging 2 * 1 cycles per preemption-capable job pushes
  // demand at t = 100 to 10 * (9 + 2) = 110 -> reject.  Only tasks
  // with D < Dmax pay (a preemptor needs a strictly earlier absolute
  // deadline), so the max-deadline task rides free.
  std::vector<NpTask> tight(10, NpTask{9, 100, 100});
  tight.push_back(NpTask{1, 1000, 1000});
  EXPECT_TRUE(preemptive_edf(tight, 0));
  EXPECT_FALSE(preemptive_edf(tight, 1));
  EXPECT_FALSE(quantum_edf(tight, 50, 1));
  const std::vector<NpTask> inflated = inflate_context_switch(tight, 7);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(inflated[i].cost, 9 + 14);
  EXPECT_EQ(inflated.back().cost, 1);
  // np never switches mid-job: the switch cost does not reach its test.
  EXPECT_TRUE(SchedPolicy({PolicyKind::kNonPreemptiveEdf, 1000, 0})
                  .schedulable({{9, 100, 100}, {1, 1000, 1000}}));
}

TEST(PreemptiveEdf, EqualDeadlineSetsPayNoSwitchCharge) {
  // All absolute deadlines tie, so no job can ever preempt another
  // (preemption requires a strictly earlier deadline) — the inflation
  // is provably zero and the exact-fit set stays admitted even with a
  // context-switch cost.  The flat 2-switch charge used to reject it.
  const std::vector<NpTask> tight(10, NpTask{9, 100, 100});
  EXPECT_TRUE(preemptive_edf(tight, 1));
  EXPECT_TRUE(quantum_edf(tight, 50, 1));
  const std::vector<NpTask> inflated = inflate_context_switch(tight, 7);
  for (const NpTask& t : inflated) EXPECT_EQ(t.cost, 9);
}

TEST(PreemptiveEdf, QuantumInterpolatesBetweenNpAndPreemptive) {
  // Blocking-limited mix: np rejects, preemptive accepts; the quantum
  // variant flips between them as the quantum crosses the slack.
  const std::vector<NpTask> mix = {{20, 100, 100}, {90, 1000, 1000}};
  EXPECT_EQ(quantum_edf(mix, 1), preemptive_edf(mix));
  EXPECT_EQ(quantum_edf(mix, 90), np_edf(mix));
}

TEST(SchedPolicy, NamesRoundTrip) {
  for (const PolicyKind kind :
       {PolicyKind::kNonPreemptiveEdf, PolicyKind::kPreemptiveEdf,
        PolicyKind::kQuantumEdf}) {
    PolicyKind parsed{};
    ASSERT_TRUE(parse_policy_name(policy_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  PolicyKind parsed{};
  EXPECT_FALSE(parse_policy_name("fifo", &parsed));
}

TEST(SchedPolicy, RejectsInvalidParams) {
  EXPECT_DEATH(SchedPolicy({PolicyKind::kPreemptiveEdf, -1, 0}),
               "context switch");
  EXPECT_DEATH(SchedPolicy({PolicyKind::kQuantumEdf, 0, 0}),
               "positive quantum");
}

TEST(SchedPolicy, PreemptionPoints) {
  const SchedPolicy np(PolicyParams{});
  EXPECT_EQ(np.preemption_point(0, 50), kNeverPreempts);

  const SchedPolicy pre({PolicyKind::kPreemptiveEdf, 0, 0});
  EXPECT_EQ(pre.preemption_point(0, 50), 50);

  const SchedPolicy q({PolicyKind::kQuantumEdf, 0, 40});
  // Mid-quantum arrivals wait for the next boundary from dispatch.
  EXPECT_EQ(q.preemption_point(100, 101), 140);
  EXPECT_EQ(q.preemption_point(100, 139), 140);
  // Exactly on a boundary: preempt now.
  EXPECT_EQ(q.preemption_point(100, 140), 140);
  EXPECT_EQ(q.preemption_point(100, 180), 180);
  // A boundary at or past the sentinel is never reached.
  const SchedPolicy huge({PolicyKind::kQuantumEdf, 0, kNeverPreempts});
  EXPECT_EQ(huge.preemption_point(0, 1), kNeverPreempts);
}

}  // namespace
}  // namespace qosctrl::sched
