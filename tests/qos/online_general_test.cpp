// The OnlineController on the *general* systems of Definition 2.3 —
// quality-dependent deadlines Dq — which the compiled tables cannot
// handle (the prototype tool's restriction).  This is the case where
// Best_Sched genuinely re-schedules per candidate level: a different q
// can reorder the EDF completion.
#include <gtest/gtest.h>

#include "qos/controller.h"
#include "qos/qual_const.h"
#include "qos/runner.h"
#include "sched/edf.h"
#include "test_systems.h"
#include "util/rng.h"

namespace qosctrl::qos {
namespace {

rt::ParameterizedSystem general_system(util::Rng& rng) {
  qos::testing::RandomSystemOptions opts;
  opts.quality_independent_deadlines = false;
  opts.num_levels = 4;
  opts.deadline_headroom = rng.chance(0.5) ? 1.0 : 1.3;
  return qos::testing::random_system(rng, opts);
}

TEST(OnlineGeneral, ScheduleCanDependOnQuality) {
  // Construct a system where the EDF order flips with the level: two
  // independent actions whose deadline order swaps between q=0 and q=1.
  rt::PrecedenceGraph g;
  g.add_action("x");
  g.add_action("y");
  rt::ParameterizedSystem sys(std::move(g), {0, 1});
  for (rt::ActionId a = 0; a < 2; ++a) sys.set_times(0, a, 5, 10);
  for (rt::ActionId a = 0; a < 2; ++a) sys.set_times(1, a, 10, 20);
  sys.set_deadline(0, 0, 100);
  sys.set_deadline(0, 1, 200);
  sys.set_deadline(1, 0, 200);
  sys.set_deadline(1, 1, 100);
  const auto alpha0 = sched::edf_schedule(sys.graph(), sys.deadline_of(0));
  const auto alpha1 = sched::edf_schedule(sys.graph(), sys.deadline_of(1));
  ASSERT_NE(alpha0, alpha1);

  OnlineController ctl(sys);
  const Decision d = ctl.next(0);
  // At t=0 the controller can afford q=1, whose EDF runs y first.
  EXPECT_EQ(d.quality, 1);
  EXPECT_EQ(d.action, 1);
}

class OnlineGeneralSafety : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(OnlineGeneralSafety, NoMissesUnderAdmissibleCosts) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    const auto sys = general_system(rng);
    OnlineController ctl(sys);
    util::Rng costs(rng.next_u64());
    for (int adversary = 0; adversary < 3; ++adversary) {
      const CycleTrace trace = run_cycle(
          sys, ctl, [&](rt::ActionId a, rt::QualityLevel q) -> rt::Cycles {
            const rt::Cycles wc = sys.cwc(q, a);
            switch (adversary) {
              case 0: return wc;
              case 1: return costs.uniform_i64(0, wc);
              default: return sys.cav(q, a);
            }
          });
      EXPECT_EQ(trace.deadline_misses, 0)
          << "seed " << GetParam() << " trial " << trial << " adversary "
          << adversary;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineGeneralSafety,
                         ::testing::Values(7, 21, 84, 2005, 424242));

TEST(OnlineGeneral, DecisionsStayMaximalWithDependentDeadlines) {
  util::Rng rng(55);
  for (int trial = 0; trial < 8; ++trial) {
    const auto sys = general_system(rng);
    OnlineController ctl(sys);
    util::Rng costs(rng.next_u64());
    rt::Cycles t = 0;
    for (std::size_t i = 0; !ctl.done(); ++i) {
      const Decision d = ctl.next(t);
      const auto& alpha = ctl.schedule();
      const rt::QualityAssignment& theta = ctl.assignment();
      EXPECT_TRUE(qual_const(sys, alpha, theta, t, i));
      for (rt::QualityLevel q : sys.quality_levels()) {
        if (q <= d.quality) continue;
        rt::QualityAssignment higher = theta.override_suffix(alpha, i, q);
        const auto alpha_q = sched::best_sched(
            sys.graph(), sys.deadline_of(higher), alpha, i);
        EXPECT_FALSE(qual_const(sys, alpha_q, higher, t, i))
            << "level " << q << " was feasible but skipped";
      }
      t += costs.uniform_i64(0, sys.cwc(d.quality, d.action));
    }
  }
}

}  // namespace
}  // namespace qosctrl::qos
