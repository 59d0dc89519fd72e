#include "toolgen/tool.h"

#include <gtest/gtest.h>

#include "encoder/body.h"
#include "platform/cost_model.h"
#include "qos/qual_const.h"
#include "rt/time_function.h"
#include "util/rng.h"

namespace qosctrl::toolgen {
namespace {

ToolInput small_input(int iterations, rt::Cycles budget) {
  ToolInput in;
  in.body.add_action("p");
  in.body.add_action("q");
  in.body.add_edge(0, 1);
  in.iterations = iterations;
  in.qualities = {0, 1};
  in.times = {
      {TimeEntry{10, 20}, TimeEntry{10, 20}},  // q=0
      {TimeEntry{30, 60}, TimeEntry{30, 60}},  // q=1
  };
  in.deadline = evenly_paced_deadlines(budget, iterations);
  return in;
}

TEST(RunTool, BuildsUnrolledSystem) {
  const ToolOutput out = run_tool(small_input(3, 300));
  ASSERT_NE(out.system, nullptr);
  ASSERT_NE(out.tables, nullptr);
  EXPECT_EQ(out.system->num_actions(), 6u);
  EXPECT_EQ(out.tables->num_positions(), 6u);
  EXPECT_EQ(out.system->cav(1, 4), 30);
  EXPECT_EQ(out.system->cwc(0, 5), 20);
}

TEST(RunTool, EvenlyPacedDeadlines) {
  const ToolOutput out = run_tool(small_input(3, 300));
  // Iteration j gets deadline (j+1) * 100 on both actions.
  EXPECT_EQ(out.system->deadline(0, 0), 100);
  EXPECT_EQ(out.system->deadline(0, 1), 100);
  EXPECT_EQ(out.system->deadline(0, 2), 200);
  EXPECT_EQ(out.system->deadline(0, 5), 300);
}

TEST(RunTool, ScheduleWalksIterationsInOrder) {
  const ToolOutput out = run_tool(small_input(4, 400));
  const auto& alpha = out.tables->schedule();
  const rt::ExecutionSequence expected{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(alpha, expected);
}

TEST(RunTool, TablesMatchDirectFormulas) {
  const ToolOutput out = run_tool(small_input(5, 600));
  const auto& sys = *out.system;
  const auto& alpha = out.tables->schedule();
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    for (std::size_t qi = 0; qi < 2; ++qi) {
      rt::QualityAssignment theta(sys.num_actions(),
                                  sys.quality_levels()[qi]);
      EXPECT_EQ(out.tables->slack_av(i, qi),
                qos::av_suffix_slack(sys, alpha, theta, i));
      EXPECT_EQ(out.tables->slack_wc(i, qi),
                qos::wc_suffix_slack(sys, alpha, theta, i));
    }
  }
}

TEST(RunToolDeath, RejectsUnschedulableBudget) {
  // 3 iterations x 2 actions x wc 20 = 120 > budget 100 at qmin.
  EXPECT_DEATH(run_tool(small_input(3, 100)), "not schedulable");
}

TEST(RunToolDeath, RejectsCyclicBody) {
  ToolInput in = small_input(1, 100);
  in.body.add_edge(1, 0);
  EXPECT_DEATH(run_tool(in), "DAG");
}

TEST(RunToolDeath, RejectsRaggedTimeTables) {
  ToolInput in = small_input(1, 100);
  in.times[0].pop_back();
  EXPECT_DEATH(run_tool(in), "cover");
}

TEST(EvenlyPacedDeadlines, LastIterationGetsFullBudget) {
  const auto d = evenly_paced_deadlines(1000, 7);
  EXPECT_EQ(d(6, 0), 1000);
  EXPECT_EQ(d(0, 0), 1000 / 7);
  // Monotone in the iteration index.
  for (int j = 1; j < 7; ++j) EXPECT_GT(d(j, 0), d(j - 1, 0));
}

TEST(EvenlyPacedDeadlines, EqualsTheExactQuotientOverTheWholeRange) {
  // floor(budget * (j + 1) / N), evaluated in 128 bits, for random
  // budgets below kNoDeadline and iteration counts across int: the
  // same values the one-product formula gave wherever it did not
  // overflow, and the exact ones where it did.
  util::Rng rng(29);
  for (int trial = 0; trial < 20000; ++trial) {
    const rt::Cycles budget =
        trial % 2 == 0 ? rng.uniform_i64(1, rt::kNoDeadline - 1)
                       : rng.uniform_i64(1, 1 << 20);
    const int iterations = static_cast<int>(
        trial % 3 == 0 ? rng.uniform_i64(1, 16)
                       : rng.uniform_i64(1, INT32_MAX));
    const auto d = evenly_paced_deadlines(budget, iterations);
    for (const int j :
         {0, iterations - 1,
          static_cast<int>(rng.uniform_i64(0, iterations - 1))}) {
      const __int128 exact =
          static_cast<__int128>(budget) * (j + 1) / iterations;
      ASSERT_EQ(d(j, 0), static_cast<rt::Cycles>(exact))
          << budget << " / " << iterations << " at " << j;
    }
  }
}

TEST(RunToolDeath, RejectsInputPastTheModelsRange) {
  ToolInput wide = small_input(2, 100);
  wide.iterations = INT32_MAX;  // two actions each: past ActionId
  EXPECT_DEATH(run_tool(wide), "action id range");
  ToolInput long_wc = small_input(2, 100);
  long_wc.times[1][0].worst_case = rt::kNoDeadline / 2;
  EXPECT_DEATH(run_tool(long_wc), "worst case");
}

TEST(RunTool, EncoderGeometryFigure5) {
  // The paper's actual configuration must pass the tool's precondition.
  ToolInput in;
  in.body = enc::make_body_graph();
  in.iterations = 99;  // QCIF
  const auto table = platform::figure5_cost_table();
  in.qualities = platform::figure5_quality_levels();
  in.times.resize(8);
  for (std::size_t qi = 0; qi < 8; ++qi) {
    for (int a = 0; a < enc::kNumBodyActions; ++a) {
      const auto& s = table.at(a, qi);
      in.times[qi].push_back(TimeEntry{s.average, s.worst_case});
    }
  }
  in.deadline = evenly_paced_deadlines(19555556, 99);
  const ToolOutput out = run_tool(in);
  EXPECT_EQ(out.system->num_actions(), 99u * 9u);
  EXPECT_TRUE(out.system->deadlines_quality_independent());
}

}  // namespace
}  // namespace qosctrl::toolgen
