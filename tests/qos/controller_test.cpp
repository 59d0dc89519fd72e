#include "qos/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "qos/qual_const.h"
#include "qos/runner.h"
#include "sched/edf.h"
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
  rt::ParameterizedSystem sys(std::move(g), {0, 1, 2});
  for (rt::ActionId a = 0; a < 2; ++a) {
    sys.set_times(0, a, 10, 20);
    sys.set_times(1, a, 30, 60);
    sys.set_times(2, a, 50, 100);
    sys.set_deadline_all_q(a, a == 0 ? 120 : 240);
  }
  return sys;
}

TEST(TableController, PicksMaximalFeasibleQuality) {
  const auto sys = tiny();
  auto tables = std::make_shared<const SlackTables>(SlackTables::build(sys));
  TableController ctl(tables);
  // At t=0: q=2 needs wc 100 <= 120 for action 0 and 100+20 <= 240 for
  // the qmin tail; av side: 50 <= 120, 100 <= 240.  All hold -> q=2.
  const Decision d = ctl.next(0);
  EXPECT_EQ(d.action, 0);
  EXPECT_EQ(d.quality, 2);
}

TEST(TableController, DropsQualityUnderTimePressure) {
  const auto sys = tiny();
  auto tables = std::make_shared<const SlackTables>(SlackTables::build(sys));
  TableController ctl(tables);
  // wc slack for q=2 at step 0: min(120, 240 - 20) - 100 = 20.
  // With t=21 q=2 must be rejected; q=1: min(120, 220) - 60 = 60 -> ok.
  const Decision d = ctl.next(21);
  EXPECT_EQ(d.quality, 1);
}

TEST(TableController, FallsBackToQminWhenNothingFits) {
  const auto sys = tiny();
  auto tables = std::make_shared<const SlackTables>(SlackTables::build(sys));
  TableController ctl(tables);
  const Decision d = ctl.next(1'000'000);  // hopelessly late
  EXPECT_EQ(d.quality, 0);
}

TEST(TableController, StartCycleRewinds) {
  const auto sys = tiny();
  auto tables = std::make_shared<const SlackTables>(SlackTables::build(sys));
  TableController ctl(tables);
  ctl.next(0);
  ctl.next(10);
  EXPECT_TRUE(ctl.done());
  ctl.start_cycle();
  EXPECT_FALSE(ctl.done());
  EXPECT_EQ(ctl.next(0).action, 0);
}

TEST(OnlineController, MatchesTableControllerDecisions) {
  // Decision-for-decision equivalence on quality-independent deadlines
  // under identical elapsed-time traces.
  util::Rng rng(31);
  for (int trial = 0; trial < 15; ++trial) {
    qos::testing::RandomSystemOptions opts;
    opts.num_levels = 4;
    const auto sys = qos::testing::random_system(rng, opts);
    auto tables =
        std::make_shared<const SlackTables>(SlackTables::build(sys));
    OnlineController online(sys);
    TableController table(tables);
    online.start_cycle();
    table.start_cycle();
    Cycles t = 0;
    util::Rng costs(rng.next_u64());
    for (std::size_t i = 0; !table.done(); ++i) {
      ASSERT_FALSE(online.done());
      const Decision a = online.next(t);
      const Decision b = table.next(t);
      EXPECT_EQ(a.action, b.action) << "trial " << trial;
      EXPECT_EQ(a.quality, b.quality) << "trial " << trial << " step " << i;
      // Advance time by an arbitrary admissible actual cost.
      const Cycles wc = sys.cwc(a.quality, a.action);
      t += costs.uniform_i64(0, wc);
    }
    EXPECT_TRUE(online.done());
  }
}

TEST(OnlineController, ChoiceSatisfiesQualConstAndIsMaximal) {
  util::Rng rng(47);
  for (int trial = 0; trial < 10; ++trial) {
    qos::testing::RandomSystemOptions opts;
    const auto sys = qos::testing::random_system(rng, opts);
    OnlineController ctl(sys);
    Cycles t = 0;
    util::Rng costs(rng.next_u64());
    for (std::size_t i = 0; !ctl.done(); ++i) {
      const Decision d = ctl.next(t);
      const auto& alpha = ctl.schedule();
      // The chosen assignment satisfies the constraint...
      rt::QualityAssignment theta = ctl.assignment();
      EXPECT_TRUE(qual_const(sys, alpha, theta, t, i));
      // ...and no strictly higher uniform-suffix level does.
      for (rt::QualityLevel q : sys.quality_levels()) {
        if (q <= d.quality) continue;
        rt::QualityAssignment higher = theta.override_suffix(alpha, i, q);
        const auto alpha_q =
            sched::best_sched(sys.graph(), sys.deadline_of(higher), alpha, i);
        EXPECT_FALSE(qual_const(sys, alpha_q, higher, t, i))
            << "level " << q << " was feasible but not chosen";
      }
      t += costs.uniform_i64(0, sys.cwc(d.quality, d.action));
    }
  }
}

TEST(ConstantController, AlwaysReturnsFixedQuality) {
  const auto sys = tiny();
  ConstantController ctl(sys, 1);
  while (!ctl.done()) {
    EXPECT_EQ(ctl.next(999'999'999).quality, 1);
  }
}

TEST(ConstantController, FollowsEdfSchedule) {
  const auto sys = tiny();
  ConstantController ctl(sys, 0);
  EXPECT_EQ(ctl.next(0).action, 0);
  EXPECT_EQ(ctl.next(0).action, 1);
  EXPECT_TRUE(ctl.done());
}

TEST(SmoothnessPolicy, LimitsUpwardSteps) {
  const auto sys = tiny();
  auto tables = std::make_shared<const SlackTables>(SlackTables::build(sys));
  // Force a low first choice by arriving late, then give infinite time:
  // an unbounded controller would jump straight to q=2; the smooth one
  // may only climb one level per decision.
  TableController smooth(tables, SmoothnessPolicy{1});
  const Decision d0 = smooth.next(90);  // only q=0 feasible here
  EXPECT_EQ(d0.quality, 0);
  const Decision d1 = smooth.next(100);  // plenty of slack for action 1
  EXPECT_LE(d1.quality, 1) << "smoothness must cap the climb at +1";
}

TEST(SmoothnessPolicy, NeverBlocksDrops) {
  const auto sys = tiny();
  auto tables = std::make_shared<const SlackTables>(SlackTables::build(sys));
  TableController smooth(tables, SmoothnessPolicy{1});
  const Decision d0 = smooth.next(0);
  EXPECT_EQ(d0.quality, 2);
  const Decision d1 = smooth.next(1'000'000);  // emergency
  EXPECT_EQ(d1.quality, 0) << "drops must not be smoothed";
}

TEST(DecimatedController, HoldsQualityBetweenDecisions) {
  util::Rng rng(77);
  qos::testing::RandomSystemOptions opts;
  opts.min_actions = 8;
  opts.max_actions = 8;
  const auto sys = qos::testing::random_system(rng, opts);
  auto tables = std::make_shared<const SlackTables>(SlackTables::build(sys));
  DecimatedController ctl(std::make_unique<TableController>(tables), 4);
  rt::QualityLevel held = -1;
  for (std::size_t i = 0; !ctl.done(); ++i) {
    const Decision d = ctl.next(0);
    if (i % 4 == 0) {
      held = d.quality;
    } else {
      EXPECT_EQ(d.quality, held) << "quality must be held within a period";
    }
  }
}

TEST(DecimatedController, FollowsSameSchedule) {
  util::Rng rng(78);
  qos::testing::RandomSystemOptions opts;
  const auto sys = qos::testing::random_system(rng, opts);
  auto tables = std::make_shared<const SlackTables>(SlackTables::build(sys));
  TableController plain(tables);
  DecimatedController dec(std::make_unique<TableController>(tables), 3);
  while (!plain.done()) {
    EXPECT_EQ(plain.next(0).action, dec.next(0).action);
  }
  EXPECT_TRUE(dec.done());
}

TEST(DecimatedController, DispatchesEveryActionOnceWhenTheOrderFollowsQuality) {
  // Three independent actions whose EDF order at q1 (deadlines
  // 300/100/200) reverses part of the q0 order (100/200/300).  The
  // online controller reorders the unexecuted suffix whenever its
  // quality changes, so the action it dispatches is known only from
  // its next(); a decimated wrapper must hand out that action, not
  // one it guessed from the schedule before the decision.
  rt::PrecedenceGraph g;
  for (const char* name : {"a0", "a1", "a2"}) g.add_action(name);
  rt::ParameterizedSystem sys(std::move(g), {0, 1});
  const Cycles q0_deadline[] = {100, 200, 300};
  const Cycles q1_deadline[] = {300, 100, 200};
  for (rt::ActionId a = 0; a < 3; ++a) {
    sys.set_times(0, a, 5, 10);
    sys.set_times(1, a, 50, 60);
    sys.set_deadline(0, a, q0_deadline[a]);
    sys.set_deadline(1, a, q1_deadline[a]);
  }
  ASSERT_TRUE(sys.validate().empty());
  DecimatedController ctl(std::make_unique<OnlineController>(sys), 3);
  std::vector<rt::ActionId> dispatched;
  const CycleTrace trace =
      run_cycle(sys, ctl, [&](rt::ActionId a, rt::QualityLevel q) {
        dispatched.push_back(a);
        return dispatched.size() == 1 ? Cycles{60} : sys.cav(q, a);
      });
  ASSERT_EQ(trace.steps.size(), 3u);
  std::sort(dispatched.begin(), dispatched.end());
  EXPECT_EQ(dispatched, (std::vector<rt::ActionId>{0, 1, 2}))
      << "every action must run exactly once per cycle";
}

TEST(SoftMode, AcceptsWhatHardModeRejects) {
  const auto sys = tiny();
  auto tables = std::make_shared<const SlackTables>(SlackTables::build(sys));
  TableController hard(tables);
  TableController soft(tables, SmoothnessPolicy{}, /*soft=*/true);
  // t=65: hard q=2 wc-rejected (slack 20), q=1 wc slack 60 also <65,
  // av q=2 slack = min(120-50, 240-100)=70 -> soft accepts q=2.
  const Decision dh = hard.next(65);
  const Decision ds = soft.next(65);
  EXPECT_LT(dh.quality, 2);
  EXPECT_EQ(ds.quality, 2);
}

}  // namespace
}  // namespace qosctrl::qos
