#include "qos/adaptive.h"

#include <gtest/gtest.h>

#include "encoder/body.h"
#include "platform/cost_model.h"
#include "qos/runner.h"
#include "toolgen/tool.h"
#include "util/rng.h"

namespace qosctrl::qos {
namespace {

/// Encoder-shaped tool input at a reduced macroblock count.
toolgen::ToolInput encoder_input(int macroblocks) {
  toolgen::ToolInput in;
  in.body = enc::make_body_graph();
  in.iterations = macroblocks;
  in.qualities = platform::figure5_quality_levels();
  const auto table = platform::figure5_cost_table();
  in.times.resize(8);
  for (std::size_t qi = 0; qi < 8; ++qi) {
    for (int a = 0; a < enc::kNumBodyActions; ++a) {
      const auto& s = table.at(a, qi);
      in.times[qi].push_back(toolgen::TimeEntry{s.average, s.worst_case});
    }
  }
  return in;
}

constexpr rt::Cycles kPeriod = 197531;

struct Rig {
  toolgen::ToolOutput dense;
  PeriodicBody body;
};

Rig make_setup(int macroblocks) {
  toolgen::ToolInput in = encoder_input(macroblocks);
  const rt::Cycles budget = kPeriod * macroblocks;
  in.deadline = toolgen::evenly_paced_deadlines(budget, macroblocks);
  Rig s{toolgen::run_tool(in), toolgen::make_periodic_body(in, budget)};
  return s;
}

TEST(AdaptiveController, StartsIdenticalToStaticTables) {
  const Rig s = make_setup(12);
  AdaptiveController adaptive(s.body);
  TableController statc(s.dense.tables);
  rt::Cycles t = 0;
  util::Rng rng(3);
  while (!statc.done()) {
    const Decision a = adaptive.next(t);
    const Decision b = statc.next(t);
    EXPECT_EQ(a.action, b.action);
    EXPECT_EQ(a.quality, b.quality);
    t += rng.uniform_i64(0, 2 * kPeriod / 9);
    // No observe(): ratios stay 1.0, decisions stay identical.
  }
}

TEST(AdaptiveController, LearnsSystematicCostRatio) {
  const Rig s = make_setup(12);
  AdaptiveConfig cfg;
  cfg.ewma_alpha = 0.2;
  AdaptiveController ctl(s.body, cfg);
  const auto& sys = *s.dense.system;
  // Actual costs are 60% of the profiled averages, every time.
  for (int cycle = 0; cycle < 30; ++cycle) {
    run_cycle(sys, ctl, [&](rt::ActionId a, rt::QualityLevel q) {
      return sys.cav(q, a) * 6 / 10;
    });
  }
  for (std::size_t k = 0; k < s.body.order.size(); ++k) {
    EXPECT_NEAR(ctl.ratio(k), 0.6, 0.08) << "order position " << k;
  }
}

TEST(AdaptiveController, LighterContentRaisesQuality) {
  const Rig s = make_setup(12);
  const auto& sys = *s.dense.system;
  const auto light = [&](rt::ActionId a, rt::QualityLevel q) {
    return sys.cav(q, a) / 2;  // content twice as easy as the profile
  };
  TableController statc(s.dense.tables);
  AdaptiveConfig cfg;
  cfg.ewma_alpha = 0.2;
  AdaptiveController adaptive(s.body, cfg);
  double static_q = 0, adaptive_q = 0;
  for (int cycle = 0; cycle < 25; ++cycle) {
    static_q = run_cycle(sys, statc, light).mean_quality();
    adaptive_q = run_cycle(sys, adaptive, light).mean_quality();
  }
  EXPECT_GT(adaptive_q, static_q + 0.3)
      << "learning should convert unused budget into quality";
}

TEST(AdaptiveController, HeavierContentLowersOvercommitment) {
  // When actual costs systematically exceed the profile averages (but
  // stay below worst case), the static controller repeatedly
  // overcommits early in the cycle and crashes to qmin later; the
  // adaptive one converges to a steadier, honest level.
  const Rig s = make_setup(12);
  const auto& sys = *s.dense.system;
  util::Rng rng(9);
  const auto heavy = [&](rt::ActionId a, rt::QualityLevel q) {
    const rt::Cycles av = sys.cav(q, a);
    const rt::Cycles wc = sys.cwc(q, a);
    return std::min(wc, av + (wc - av) / 3 + av / 2);
  };
  AdaptiveConfig cfg;
  cfg.ewma_alpha = 0.2;
  AdaptiveController adaptive(s.body, cfg);
  CycleTrace last;
  for (int cycle = 0; cycle < 25; ++cycle) {
    last = run_cycle(sys, adaptive, heavy);
    EXPECT_EQ(last.deadline_misses, 0) << "cycle " << cycle;
  }
  for (std::size_t k = 0; k < s.body.order.size(); ++k) {
    if (s.body.cwc[3][k] > s.body.cav[3][k]) {
      EXPECT_GT(adaptive.ratio(k), 1.05) << "order position " << k;
    } else {
      // Deterministic actions (av == wc, e.g. the DCT) cannot exceed
      // their average; their ratio must stay at the profile value.
      EXPECT_DOUBLE_EQ(adaptive.ratio(k), 1.0) << "order position " << k;
    }
  }
}

TEST(AdaptiveController, SafetyHoldsUnderAdversarialCosts) {
  // The learned averages never touch the worst-case tables, so the
  // zero-miss guarantee must survive any admissible adversary — even
  // one that first teaches the controller optimism, then turns hostile.
  const Rig s = make_setup(10);
  const auto& sys = *s.dense.system;
  AdaptiveConfig cfg;
  cfg.ewma_alpha = 0.3;
  AdaptiveController ctl(s.body, cfg);
  // Phase 1: lull — tiny costs teach aggressive averages.
  for (int cycle = 0; cycle < 10; ++cycle) {
    const CycleTrace t = run_cycle(
        sys, ctl, [&](rt::ActionId a, rt::QualityLevel q) {
          return sys.cav(q, a) / 4;
        });
    EXPECT_EQ(t.deadline_misses, 0);
  }
  // Phase 2: ambush — every action takes its worst case.
  for (int cycle = 0; cycle < 10; ++cycle) {
    const CycleTrace t = run_cycle(
        sys, ctl, [&](rt::ActionId a, rt::QualityLevel q) {
          return sys.cwc(q, a);
        });
    EXPECT_EQ(t.deadline_misses, 0)
        << "learning must never compromise safety (cycle " << cycle << ")";
  }
}

TEST(AdaptiveController, RatiosAreClamped) {
  const Rig s = make_setup(6);
  const auto& sys = *s.dense.system;
  AdaptiveConfig cfg;
  cfg.ewma_alpha = 1.0;  // adopt each sample instantly
  AdaptiveController ctl(s.body, cfg);
  run_cycle(sys, ctl, [](rt::ActionId, rt::QualityLevel) -> rt::Cycles {
    return 0;  // absurdly cheap
  });
  for (std::size_t k = 0; k < s.body.order.size(); ++k) {
    EXPECT_DOUBLE_EQ(ctl.ratio(k), kMinCostRatio);
  }
  run_cycle(sys, ctl, [&](rt::ActionId a, rt::QualityLevel q) {
    return 1000 * sys.cwc(q, a);  // absurdly expensive
  });
  for (std::size_t k = 0; k < s.body.order.size(); ++k) {
    EXPECT_DOUBLE_EQ(ctl.ratio(k), kMaxCostRatio);
  }
}

TEST(AdaptiveController, DispatchesTheDenseOrderAfterLearning) {
  const Rig s = make_setup(7);
  const auto& sys = *s.dense.system;
  AdaptiveController ctl(s.body);
  const auto cheap = [](rt::ActionId, rt::QualityLevel) -> rt::Cycles {
    return 1000;
  };
  run_cycle(sys, ctl, cheap);  // learned ratios now differ from 1.0
  const CycleTrace trace = run_cycle(sys, ctl, cheap);
  ASSERT_EQ(trace.steps.size(), s.dense.tables->num_positions());
  for (std::size_t i = 0; i < trace.steps.size(); ++i) {
    EXPECT_EQ(trace.steps[i].action, s.dense.tables->schedule()[i]);
  }
}

}  // namespace
}  // namespace qosctrl::qos
