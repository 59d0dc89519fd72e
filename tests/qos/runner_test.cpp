#include "qos/runner.h"

#include <gtest/gtest.h>

#include <memory>

#include "qos/slack_tables.h"
#include "test_systems.h"
#include "util/rng.h"

namespace qosctrl::qos {
namespace {

using rt::Cycles;

rt::ParameterizedSystem tiny() {
  rt::PrecedenceGraph g;
  g.add_action("x");
  g.add_action("y");
  g.add_edge(0, 1);
  rt::ParameterizedSystem sys(std::move(g), {0, 1});
  for (rt::ActionId a = 0; a < 2; ++a) {
    sys.set_times(0, a, 10, 20);
    sys.set_times(1, a, 30, 60);
    sys.set_deadline_all_q(a, a == 0 ? 100 : 200);
  }
  return sys;
}

TEST(RunCycle, RecordsStepsInOrder) {
  const auto sys = tiny();
  auto tables = std::make_shared<const SlackTables>(SlackTables::build(sys));
  TableController ctl(tables);
  const CycleTrace trace =
      run_cycle(sys, ctl, [](rt::ActionId, rt::QualityLevel) -> Cycles {
        return 25;
      });
  ASSERT_EQ(trace.steps.size(), 2u);
  EXPECT_EQ(trace.steps[0].action, 0);
  EXPECT_EQ(trace.steps[0].start, 0);
  EXPECT_EQ(trace.steps[1].start, 25);
  EXPECT_EQ(trace.total_cycles, 50);
  EXPECT_EQ(trace.deadline_misses, 0);
}

TEST(RunCycle, DetectsMisses) {
  const auto sys = tiny();
  ConstantController ctl(sys, 1);
  const CycleTrace trace =
      run_cycle(sys, ctl, [](rt::ActionId, rt::QualityLevel) -> Cycles {
        return 150;  // each action blows through the first deadline
      });
  EXPECT_EQ(trace.deadline_misses, 2);  // 150 > 100 and 300 > 200
  EXPECT_TRUE(trace.steps[0].missed);
  EXPECT_TRUE(trace.steps[1].missed);
}

TEST(RunCycle, MeanQuality) {
  const auto sys = tiny();
  ConstantController ctl(sys, 1);
  const CycleTrace trace = run_cycle(
      sys, ctl, [](rt::ActionId, rt::QualityLevel) -> Cycles { return 1; });
  EXPECT_DOUBLE_EQ(trace.mean_quality(), 1.0);
}

TEST(RunCycle, BudgetUtilization) {
  const auto sys = tiny();
  ConstantController ctl(sys, 0);
  const CycleTrace trace = run_cycle(
      sys, ctl, [](rt::ActionId, rt::QualityLevel) -> Cycles { return 50; });
  EXPECT_DOUBLE_EQ(trace.budget_utilization(200), 0.5);
  EXPECT_DOUBLE_EQ(trace.budget_utilization(0), 0.0);
}

TEST(RunCycle, CostSourceSeesChosenQuality) {
  const auto sys = tiny();
  auto tables = std::make_shared<const SlackTables>(SlackTables::build(sys));
  TableController ctl(tables);
  std::vector<rt::QualityLevel> seen;
  run_cycle(sys, ctl,
            [&seen](rt::ActionId, rt::QualityLevel q) -> Cycles {
              seen.push_back(q);
              return 5;
            });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 1);  // plenty of slack at t=0
}

TEST(RunCycle, StartOffsetShiftsTimeButNotTotals) {
  const auto sys = tiny();
  ConstantController ctl(sys, 1);
  // Steps end at 120 and 180: the first misses its deadline of 100.
  const CycleTrace trace = run_cycle(
      sys, ctl, [](rt::ActionId, rt::QualityLevel) -> Cycles { return 60; },
      /*t0=*/60);
  ASSERT_EQ(trace.steps.size(), 2u);
  EXPECT_EQ(trace.steps[0].start, 60);
  EXPECT_EQ(trace.steps[1].start, 120);
  EXPECT_TRUE(trace.steps[0].missed);
  EXPECT_FALSE(trace.steps[1].missed);
  EXPECT_EQ(trace.deadline_misses, 1);
  EXPECT_EQ(trace.total_cycles, 120);
}

TEST(RunCycle, StepCallbackSeesWhatTheRecordingFormRecords) {
  const auto sys = tiny();
  auto tables = std::make_shared<const SlackTables>(SlackTables::build(sys));
  const auto cost = [](rt::ActionId a, rt::QualityLevel q) -> Cycles {
    return 7 + 11 * a + 13 * q;
  };
  TableController recorded_ctl(tables);
  const CycleTrace recorded = run_cycle(sys, recorded_ctl, cost, 3);
  TableController streamed_ctl(tables);
  std::vector<StepTrace> streamed;
  const CycleTotals totals = run_cycle(
      sys, streamed_ctl, cost,
      [&streamed](const StepTrace& s) { streamed.push_back(s); }, 3);
  ASSERT_EQ(streamed.size(), recorded.steps.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].action, recorded.steps[i].action);
    EXPECT_EQ(streamed[i].quality, recorded.steps[i].quality);
    EXPECT_EQ(streamed[i].start, recorded.steps[i].start);
    EXPECT_EQ(streamed[i].cost, recorded.steps[i].cost);
    EXPECT_EQ(streamed[i].deadline, recorded.steps[i].deadline);
    EXPECT_EQ(streamed[i].missed, recorded.steps[i].missed);
  }
  EXPECT_EQ(totals.total_cycles, recorded.total_cycles);
  EXPECT_EQ(totals.deadline_misses, recorded.deadline_misses);
}

}  // namespace
}  // namespace qosctrl::qos
