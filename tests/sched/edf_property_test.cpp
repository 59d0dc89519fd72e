// Property-style randomized cross-checks of the three scheduling
// policies' admission tests (sched/policy.h) over sporadic task sets.
// Deterministic: a fixed-seed util::Rng drives every draw.
//
// The pinned orderings follow from the shared demand core: demand and
// caps are identical across the policies and only the blocking term
// shrinks, so (with equal context-switch cost)
//
//   np-admissible  ⊆  quantum-admissible  ⊆  preemptive-admissible
//
// and utilization > 1 is rejected by every member.
#include <gtest/gtest.h>

#include <vector>

#include "sched/policy.h"
#include "util/rng.h"

namespace qosctrl::sched {
namespace {

bool admits(PolicyKind kind, const std::vector<NpTask>& tasks,
            rt::Cycles quantum = 0, rt::Cycles context_switch = 0) {
  return SchedPolicy({kind, context_switch, quantum}).schedulable(tasks);
}

std::vector<NpTask> random_task_set(util::Rng& rng) {
  const int n = static_cast<int>(rng.uniform_i64(1, 5));
  std::vector<NpTask> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    NpTask t;
    t.period = rng.uniform_i64(5, 60);
    t.cost = rng.uniform_i64(1, t.period);
    // Constrained through loose: D anywhere in [C, 3 * T].
    t.deadline = rng.uniform_i64(t.cost, 3 * t.period);
    tasks.push_back(t);
  }
  return tasks;
}

TEST(EdfProperty, PreemptiveAdmitsEverythingNpAdmits) {
  util::Rng rng(20260729);
  int np_yes = 0, preemptive_yes = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::vector<NpTask> tasks = random_task_set(rng);
    const bool np = admits(PolicyKind::kNonPreemptiveEdf, tasks);
    const bool quantum =
        admits(PolicyKind::kQuantumEdf, tasks, rng.uniform_i64(1, 40));
    const bool preemptive = admits(PolicyKind::kPreemptiveEdf, tasks);
    np_yes += np ? 1 : 0;
    preemptive_yes += preemptive ? 1 : 0;
    if (np) {
      EXPECT_TRUE(quantum) << "np-admissible set rejected by quantum EDF "
                           << "(trial " << trial << ")";
    }
    if (quantum) {
      EXPECT_TRUE(preemptive)
          << "quantum-admissible set rejected by preemptive EDF (trial "
          << trial << ")";
    }
  }
  // The inclusion must be strict somewhere, and both sides must see
  // a healthy mix of verdicts for the property to mean anything.
  EXPECT_GT(np_yes, 100);
  EXPECT_LT(np_yes, 1900);
  EXPECT_GT(preemptive_yes, np_yes);
}

TEST(EdfProperty, OverUtilizationRejectedByEveryPolicy) {
  util::Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<NpTask> tasks = random_task_set(rng);
    // Inflate the costs until utilization exceeds 1.
    while (np_utilization(tasks) <= 1.0) {
      for (NpTask& t : tasks) t.cost += 1 + t.cost / 2;
    }
    EXPECT_FALSE(admits(PolicyKind::kNonPreemptiveEdf, tasks));
    EXPECT_FALSE(admits(PolicyKind::kQuantumEdf, tasks, 10));
    EXPECT_FALSE(admits(PolicyKind::kPreemptiveEdf, tasks));
  }
}

TEST(EdfProperty, ContextSwitchCostOnlyShrinksTheAdmissibleSet) {
  util::Rng rng(424242);
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<NpTask> tasks = random_task_set(rng);
    if (admits(PolicyKind::kPreemptiveEdf, tasks, 0, 2)) {
      EXPECT_TRUE(admits(PolicyKind::kPreemptiveEdf, tasks))
          << "overhead-inflated admission must imply zero-overhead "
          << "admission (trial " << trial << ")";
    }
  }
}

}  // namespace
}  // namespace qosctrl::sched
