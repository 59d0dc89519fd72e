// Pins QPA (sched/qpa.h) decision-identical to the exact check-point
// scan (sched/np_edf.h, the test reference) — randomized task sets
// across every blocking regime and all three scheduling policies, the
// warm busy-seed contract, and the worked numeric example from
// docs/admission.md.
// Deterministic: fixed-seed util::Rng drives every draw.
#include "sched/qpa.h"

#include <gtest/gtest.h>

#include <vector>

#include "sched/policy.h"
#include "util/rng.h"

namespace qosctrl::sched {
namespace {

// Wide mix on purpose: constrained (D < T) through loose (D up to
// 3 * T) deadlines, and per-task utilization drawn so the set's total
// straddles 1 — both verdicts must appear often for the equivalence
// to mean anything.
std::vector<NpTask> random_task_set(util::Rng& rng) {
  const int n = static_cast<int>(rng.uniform_i64(1, 6));
  std::vector<NpTask> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    NpTask t;
    t.period = rng.uniform_i64(4, 50);
    t.cost = rng.uniform_i64(1, 1 + t.period / 3);
    t.deadline = rng.uniform_i64(t.cost, 3 * t.period);
    tasks.push_back(t);
  }
  return tasks;
}

TEST(QpaProperty, MatchesExactAcrossRandomSetsAndBlockingRegimes) {
  util::Rng rng(20260807);
  int accepts = 0, rejects = 0;
  for (int trial = 0; trial < 700; ++trial) {
    const std::vector<NpTask> tasks = random_task_set(rng);
    const rt::Cycles quantum = rng.uniform_i64(1, 20);
    for (const rt::Cycles blocking : {rt::Cycles{0}, quantum,
                                      kUncappedBlocking}) {
      const bool exact = edf_demand_schedulable(tasks, blocking);
      const bool qpa = qpa_demand_schedulable(tasks, blocking);
      ASSERT_EQ(exact, qpa)
          << "QPA diverged from the exact scan (trial " << trial
          << ", blocking " << blocking << ")";
      (exact ? accepts : rejects) += 1;
    }
  }
  // Both verdicts must be well represented, or the property is vacuous.
  EXPECT_GT(accepts, 100);
  EXPECT_GT(rejects, 100);
}

TEST(QpaProperty, MatchesExactThroughAllThreePolicies) {
  // Through the policy layer (sched/policy.h), where QPA composes with
  // context-switch inflation and the per-policy blocking cap: the
  // verdict must equal the exact scan's over the same inflated set
  // and cap.
  util::Rng rng(20260808);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<NpTask> tasks = random_task_set(rng);
    for (const PolicyKind kind :
         {PolicyKind::kNonPreemptiveEdf, PolicyKind::kPreemptiveEdf,
          PolicyKind::kQuantumEdf}) {
      PolicyParams params;
      params.kind = kind;
      params.quantum = rng.uniform_i64(1, 20);
      params.context_switch_cost = rng.uniform_i64(0, 2);
      const bool qpa = SchedPolicy(params).schedulable(tasks);
      const bool exact =
          kind == PolicyKind::kNonPreemptiveEdf
              ? edf_demand_schedulable(tasks, kUncappedBlocking)
              : edf_demand_schedulable(
                    inflate_context_switch(tasks,
                                           params.context_switch_cost),
                    kind == PolicyKind::kQuantumEdf ? params.quantum : 0);
      ASSERT_EQ(exact, qpa)
          << "policy " << policy_name(kind) << " diverged (trial "
          << trial << ")";
    }
  }
}

TEST(QpaProperty, WarmBusySeedPreservesDecisionsAndBusyLength) {
  // The DemandQuery contract the admission controller relies on: the
  // busy length converged by the test that admitted the previous
  // commitment (a subset of the current tasks) is a valid seed — the
  // warm fixpoint must land on the same busy length and the same
  // verdict as a cold start.
  util::Rng rng(20260809);
  int grown_tests = 0;
  for (int run = 0; run < 120; ++run) {
    const rt::Cycles blocking =
        (run % 3 == 0) ? kUncappedBlocking
                       : (run % 3 == 1 ? rt::Cycles{0}
                                       : rng.uniform_i64(1, 20));
    std::vector<NpTask> tasks;
    rt::Cycles seed = 0;
    for (int step = 0; step < 6; ++step) {
      NpTask t;
      t.period = rng.uniform_i64(4, 50);
      t.cost = rng.uniform_i64(1, 1 + t.period / 4);
      t.deadline = rng.uniform_i64(t.cost, 2 * t.period);
      tasks.push_back(t);

      rt::Cycles cold_busy = 0, warm_busy = 0;
      const bool cold = qpa_demand_schedulable(
          tasks, blocking, DemandQuery{nullptr, 0, &cold_busy});
      const bool warm = qpa_demand_schedulable(
          tasks, blocking, DemandQuery{nullptr, seed, &warm_busy});
      const bool exact = edf_demand_schedulable(tasks, blocking);
      ASSERT_EQ(cold, exact) << "run " << run << " step " << step;
      ASSERT_EQ(warm, exact) << "run " << run << " step " << step;
      if (!exact) break;  // a rejected candidate is never committed
      EXPECT_EQ(warm_busy, cold_busy)
          << "warm seed changed the converged busy length (run " << run
          << " step " << step << ")";
      seed = warm_busy;  // the admitting test's busy feeds the next
      ++grown_tests;
    }
  }
  EXPECT_GT(grown_tests, 200);  // enough multi-task warm steps ran
}

TEST(QpaProperty, WorkedExampleFromDocs) {
  // The docs/admission.md worked example, pinned: (C, D, T) triples
  // A = (2, 6, 8), B = (3, 7, 9), C = (2, 10, 12) under non-preemptive
  // blocking.  U = 0.75, busy period 7, check points {6, 7, 10}; the
  // binding point is t = 7 where demand 5 + blocking 2 == 7.
  const std::vector<NpTask> example = {{2, 6, 8}, {3, 7, 9}, {2, 10, 12}};
  EXPECT_TRUE(edf_demand_schedulable(example, kUncappedBlocking));
  EdfScanStats qpa_stats;
  EXPECT_TRUE(qpa_demand_schedulable(
      example, kUncappedBlocking, DemandQuery{&qpa_stats, 0, nullptr}));
  EXPECT_GT(qpa_stats.qpa_points, 0);

  // Raising B's cost by one overloads the binding point (demand 6 +
  // blocking 2 > 7): both algorithms must flip to reject.
  const std::vector<NpTask> bumped = {{2, 6, 8}, {4, 7, 9}, {2, 10, 12}};
  EXPECT_FALSE(edf_demand_schedulable(bumped, kUncappedBlocking));
  EXPECT_FALSE(qpa_demand_schedulable(bumped, kUncappedBlocking));
}

}  // namespace
}  // namespace qosctrl::sched
