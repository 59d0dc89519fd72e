#include "qos/periodic_tables.h"

#include <gtest/gtest.h>

#include "encoder/body.h"
#include "platform/cost_model.h"
#include "test_systems.h"
#include "toolgen/tool.h"
#include "util/rng.h"

namespace qosctrl::qos {
namespace {

using qos::testing::random_body_input;
using qos::testing::safe_period;

// The core equivalence: compact closed forms == dense backward sweep,
// at every position and quality, across random bodies and iteration
// counts (including overloaded periods where the drift term kicks in).
class PeriodicEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PeriodicEquivalence, MatchesDenseTables) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int iterations = static_cast<int>(rng.uniform_i64(1, 12));
    toolgen::ToolInput in = random_body_input(rng, iterations);
    const rt::Cycles period = safe_period(in, rng);
    const rt::Cycles budget = period * iterations;
    in.deadline = toolgen::evenly_paced_deadlines(budget, iterations);

    const toolgen::ToolOutput dense = toolgen::run_tool(in);
    const auto compact =
        PeriodicSlackTables::build(toolgen::make_periodic_body(in, budget));

    ASSERT_EQ(compact.num_positions(), dense.tables->num_positions());
    for (std::size_t i = 0; i < compact.num_positions(); ++i) {
      EXPECT_EQ(compact.action_at(i), dense.tables->schedule()[i])
          << "schedule mismatch at " << i;
      for (std::size_t qi = 0; qi < in.qualities.size(); ++qi) {
        EXPECT_EQ(compact.slack_av(i, qi), dense.tables->slack_av(i, qi))
            << "av mismatch at i=" << i << " qi=" << qi << " trial "
            << trial;
        EXPECT_EQ(compact.slack_wc(i, qi), dense.tables->slack_wc(i, qi))
            << "wc mismatch at i=" << i << " qi=" << qi << " trial "
            << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeriodicEquivalence,
                         ::testing::Values(1, 7, 42, 2005, 31337));

TEST(PeriodicEquivalence, OverloadedPeriodUsesDriftTerm) {
  // Period below the qmin average total: slack shrinks toward later
  // iterations; the drift term must match the dense sweep exactly.
  util::Rng rng(99);
  toolgen::ToolInput in = random_body_input(rng, 5);
  // Tight: period = qmin WCET total (exact feasibility boundary).
  rt::Cycles wc_total = 0;
  for (const auto& e : in.times[0]) wc_total += e.worst_case;
  const rt::Cycles budget = wc_total * 5;
  in.deadline = toolgen::evenly_paced_deadlines(budget, 5);
  const toolgen::ToolOutput dense = toolgen::run_tool(in);
  const auto compact =
      PeriodicSlackTables::build(toolgen::make_periodic_body(in, budget));
  for (std::size_t i = 0; i < compact.num_positions(); ++i) {
    for (std::size_t qi = 0; qi < in.qualities.size(); ++qi) {
      EXPECT_EQ(compact.slack_av(i, qi), dense.tables->slack_av(i, qi));
      EXPECT_EQ(compact.slack_wc(i, qi), dense.tables->slack_wc(i, qi));
    }
  }
}

TEST(PeriodicTables, EncoderGeometryAgreesWithDense) {
  // The full paper configuration: 99 macroblocks, Figure 5 times.
  toolgen::ToolInput in;
  in.body = enc::make_body_graph();
  in.iterations = 99;
  const auto table = platform::figure5_cost_table();
  in.qualities = platform::figure5_quality_levels();
  in.times.resize(8);
  for (std::size_t qi = 0; qi < 8; ++qi) {
    for (int a = 0; a < enc::kNumBodyActions; ++a) {
      const auto& s = table.at(a, qi);
      in.times[qi].push_back(toolgen::TimeEntry{s.average, s.worst_case});
    }
  }
  const rt::Cycles budget = 19555569;  // 99 * 197531
  in.deadline = toolgen::evenly_paced_deadlines(budget, 99);
  const toolgen::ToolOutput dense = toolgen::run_tool(in);
  const auto compact =
      PeriodicSlackTables::build(toolgen::make_periodic_body(in, budget));
  ASSERT_EQ(compact.num_positions(), 891u);
  // Spot-check a grid of positions (the full product is covered by the
  // randomized suites above).
  for (std::size_t i = 0; i < 891; i += 37) {
    for (std::size_t qi = 0; qi < 8; ++qi) {
      ASSERT_EQ(compact.slack_av(i, qi), dense.tables->slack_av(i, qi));
      ASSERT_EQ(compact.slack_wc(i, qi), dense.tables->slack_wc(i, qi));
    }
  }
  // Memory: three orders of magnitude smaller.
  EXPECT_LT(compact.table_bytes() * 50, dense.tables->table_bytes());
}

TEST(PeriodicTables, DeadlinesFollowIterationIndex) {
  util::Rng rng(3);
  toolgen::ToolInput in = random_body_input(rng, 4);
  const rt::Cycles period = safe_period(in, rng);
  const auto compact = PeriodicSlackTables::build(
      toolgen::make_periodic_body(in, period * 4));
  const std::size_t m = in.body.num_actions();
  for (std::size_t i = 0; i < compact.num_positions(); ++i) {
    EXPECT_EQ(compact.deadline_at(i),
              static_cast<rt::Cycles>(i / m + 1) * period);
  }
}

TEST(PeriodicTablesDeath, RejectsIndivisibleBudget) {
  util::Rng rng(8);
  toolgen::ToolInput in = random_body_input(rng, 3);
  EXPECT_DEATH(toolgen::make_periodic_body(in, 100), "divisible");
}

}  // namespace
}  // namespace qosctrl::qos
