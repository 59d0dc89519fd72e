#include "qos/slack_tables.h"

#include <gtest/gtest.h>

#include "qos/qual_const.h"
#include "sched/edf.h"
#include "test_systems.h"
#include "util/rng.h"

namespace qosctrl::qos {
namespace {

using rt::Cycles;

// The compiled tables must agree exactly with the direct formulas of
// qual_const.h at every (position, quality) pair — the oracle-vs-
// compiled equivalence the paper's tool relies on.
class TableEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TableEquivalence, MatchesDirectFormulas) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    qos::testing::RandomSystemOptions opts;
    opts.num_levels = 1 + static_cast<int>(rng.uniform_i64(1, 5));
    const auto sys = qos::testing::random_system(rng, opts);
    const SlackTables tables = SlackTables::build(sys);
    const auto& alpha = tables.schedule();
    ASSERT_TRUE(sys.graph().is_schedule(alpha));
    for (std::size_t i = 0; i < alpha.size(); ++i) {
      for (std::size_t qi = 0; qi < sys.quality_levels().size(); ++qi) {
        const rt::QualityLevel q = sys.quality_levels()[qi];
        rt::QualityAssignment theta(sys.num_actions(), q);
        EXPECT_EQ(tables.slack_av(i, qi),
                  av_suffix_slack(sys, alpha, theta, i))
            << "av mismatch at i=" << i << " q=" << q;
        EXPECT_EQ(tables.slack_wc(i, qi),
                  wc_suffix_slack(sys, alpha, theta, i))
            << "wc mismatch at i=" << i << " q=" << q;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableEquivalence,
                         ::testing::Values(3, 17, 29, 101, 2005));

TEST(SlackTables, AcceptableMatchesSlacks) {
  util::Rng rng(5);
  qos::testing::RandomSystemOptions opts;
  const auto sys = qos::testing::random_system(rng, opts);
  const SlackTables tables = SlackTables::build(sys);
  for (std::size_t i = 0; i < tables.num_positions(); ++i) {
    for (std::size_t qi = 0; qi < tables.quality_levels().size(); ++qi) {
      const Cycles limit =
          std::min(tables.slack_av(i, qi), tables.slack_wc(i, qi));
      EXPECT_TRUE(acceptable(tables, i, qi, limit));
      EXPECT_FALSE(acceptable(tables, i, qi, limit + 1));
      // Soft mode ignores the wc side.
      EXPECT_TRUE(acceptable(tables, i, qi, tables.slack_av(i, qi),
                             /*soft=*/true));
    }
  }
}

TEST(SlackTables, SlacksDecreaseWithQualityAtFixedPosition) {
  util::Rng rng(9);
  qos::testing::RandomSystemOptions opts;
  opts.num_levels = 5;
  const auto sys = qos::testing::random_system(rng, opts);
  const SlackTables tables = SlackTables::build(sys);
  for (std::size_t i = 0; i < tables.num_positions(); ++i) {
    for (std::size_t qi = 1; qi < 5; ++qi) {
      EXPECT_LE(tables.slack_av(i, qi), tables.slack_av(i, qi - 1));
      EXPECT_LE(tables.slack_wc(i, qi), tables.slack_wc(i, qi - 1));
    }
  }
}

TEST(SlackTables, TableBytesAccountsForBothTables) {
  util::Rng rng(11);
  qos::testing::RandomSystemOptions opts;
  opts.min_actions = 4;
  opts.max_actions = 4;
  opts.num_levels = 3;
  const auto sys = qos::testing::random_system(rng, opts);
  const SlackTables tables = SlackTables::build(sys);
  const std::size_t expected =
      4 * sizeof(rt::ActionId) + 3 * sizeof(rt::QualityLevel) +
      2 * 4 * 3 * sizeof(Cycles);
  EXPECT_EQ(tables.table_bytes(), expected);
}

TEST(SlackTablesDeath, RejectsQualityDependentDeadlines) {
  util::Rng rng(21);
  qos::testing::RandomSystemOptions opts;
  opts.quality_independent_deadlines = false;
  const auto sys = qos::testing::random_system(rng, opts);
  EXPECT_DEATH(SlackTables::build(sys), "quality-independent");
}

}  // namespace
}  // namespace qosctrl::qos
