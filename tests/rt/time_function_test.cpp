#include "rt/time_function.h"

#include <gtest/gtest.h>

namespace qosctrl::rt {
namespace {

TEST(TimeFunction, DefaultFillAndSet) {
  TimeFunction c(3, 7);
  EXPECT_EQ(c(0), 7);
  c.set(1, 42);
  EXPECT_EQ(c(1), 42);
  EXPECT_EQ(c(2), 7);
}

TEST(MinSlack, FeasibleSchedule) {
  // Two actions: costs 3 and 4, deadlines 5 and 10.
  TimeFunction c(std::vector<Cycles>{3, 4});
  DeadlineFunction d(std::vector<Cycles>{5, 10});
  const ExecutionSequence alpha{0, 1};
  EXPECT_EQ(min_slack(alpha, c, d), 2);  // min(5-3, 10-7) = 2
  EXPECT_TRUE(is_feasible(alpha, c, d));
}

TEST(MinSlack, InfeasibleSchedule) {
  TimeFunction c(std::vector<Cycles>{6, 4});
  DeadlineFunction d(std::vector<Cycles>{5, 10});
  const ExecutionSequence alpha{0, 1};
  EXPECT_EQ(min_slack(alpha, c, d), -1);
  EXPECT_FALSE(is_feasible(alpha, c, d));
}

TEST(MinSlack, OrderMatters) {
  TimeFunction c(std::vector<Cycles>{3, 4});
  DeadlineFunction d(std::vector<Cycles>{5, 10});
  EXPECT_TRUE(is_feasible({0, 1}, c, d));
  // Running the long-deadline action first misses the tight deadline.
  EXPECT_FALSE(is_feasible({1, 0}, c, d));
}

TEST(MinSlack, NoDeadlinePositionsDoNotConstrain) {
  TimeFunction c(std::vector<Cycles>{1000, 1});
  DeadlineFunction d(std::vector<Cycles>{kNoDeadline, 2000});
  EXPECT_EQ(min_slack({0, 1}, c, d), 999);
}

TEST(MinSlack, EmptySequenceHasInfiniteSlack) {
  TimeFunction c(0);
  DeadlineFunction d(0);
  EXPECT_EQ(min_slack({}, c, d), kNoDeadline);
}

TEST(MinSlack, ElapsedTimeSaturatesAtSentinel) {
  // The running sum stops at kNoDeadline instead of overflowing.
  TimeFunction c(std::vector<Cycles>{kNoDeadline, 100});
  DeadlineFunction d(std::vector<Cycles>{kNoDeadline, 5});
  EXPECT_EQ(min_slack({0, 1}, c, d), 5 - kNoDeadline);
}

TEST(MinSlackFrom, InitialElapsedTimeShiftsEverything) {
  TimeFunction c(std::vector<Cycles>{3, 4});
  DeadlineFunction d(std::vector<Cycles>{5, 10});
  EXPECT_EQ(min_slack_from({0, 1}, c, d, 0), 2);
  EXPECT_EQ(min_slack_from({0, 1}, c, d, 2), 0);
  EXPECT_EQ(min_slack_from({0, 1}, c, d, 3), -1);
}

// Property: feasibility via min_slack agrees with the direct definition
// min(D(alpha) - cumsum(C(alpha))) >= 0 computed by hand.
class SlackDefinition : public ::testing::TestWithParam<Cycles> {};

TEST_P(SlackDefinition, AgreesWithDefinition) {
  const Cycles shift = GetParam();
  TimeFunction c(std::vector<Cycles>{5, 7, 2, 9});
  DeadlineFunction d(std::vector<Cycles>{6 + shift, 13 + shift, 20 + shift,
                                         30 + shift});
  const ExecutionSequence alpha{0, 1, 2, 3};
  Cycles direct = kNoDeadline;
  Cycles elapsed = 0;
  for (const ActionId a : alpha) {
    elapsed += c(a);
    direct = std::min(direct, d(a) - elapsed);
  }
  EXPECT_EQ(min_slack(alpha, c, d), direct);
  EXPECT_EQ(is_feasible(alpha, c, d), direct >= 0);
}

INSTANTIATE_TEST_SUITE_P(Shifts, SlackDefinition,
                         ::testing::Values(-10, -2, -1, 0, 1, 5, 100));

}  // namespace
}  // namespace qosctrl::rt
