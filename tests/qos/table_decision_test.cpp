// The O(log|Q|) binary-search decision (qos::best_quality) must be
// indistinguishable from the original O(|Q|) downward scan: same
// maximal acceptable quality index at every (position, t), the same
// qmin fallback when nothing is acceptable, and identical
// TableController decision sequences under every smoothness / soft
// combination.  Checked on both table forms: dense SlackTables and
// compact PeriodicSlackTables, the latter also with the learned
// averages AdaptiveController builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "qos/controller.h"
#include "qos/periodic_tables.h"
#include "qos/slack_tables.h"
#include "test_systems.h"
#include "util/rng.h"

namespace qosctrl::qos {
namespace {

using rt::Cycles;

/// The original decision procedure, verbatim: scan quality indices
/// downward from `hi`, first acceptable wins, index 0 as fallback.
template <class Tables>
std::size_t linear_scan(const Tables& tables, std::size_t i, std::size_t hi,
                        Cycles t, bool soft) {
  for (std::size_t qi = hi + 1; qi-- > 0;) {
    if (acceptable(tables, i, qi, t, soft)) return qi;
  }
  return 0;
}

/// best_quality == linear_scan at position i for every cap hi and both
/// modes, with t swept through every slack boundary (one below, at, one
/// above) plus extremes: decisions can only change at these points.
template <class Tables>
void expect_scan_equivalence(const Tables& tables, std::size_t i) {
  const std::size_t nq = tables.quality_levels().size();
  std::vector<Cycles> probes = {0, 1, rt::kNoDeadline};
  for (std::size_t qi = 0; qi < nq; ++qi) {
    for (const Cycles s : {tables.slack_av(i, qi), tables.slack_wc(i, qi)}) {
      probes.push_back(s - 1);
      probes.push_back(s);
      probes.push_back(s + 1);
    }
  }
  for (const Cycles t : probes) {
    if (t < 0) continue;
    for (const bool soft : {false, true}) {
      for (std::size_t hi = 0; hi < nq; ++hi) {
        EXPECT_EQ(best_quality(tables, i, hi, t, soft),
                  linear_scan(tables, i, hi, t, soft))
            << "i=" << i << " hi=" << hi << " t=" << t << " soft=" << soft;
      }
    }
  }
}

/// AdaptiveController's learned averages: each body position's Cav
/// scaled by one ratio across all levels, rounded, clamped to [0, Cwc].
PeriodicBody scale_averages(PeriodicBody body, util::Rng& rng) {
  for (std::size_t k = 0; k < body.order.size(); ++k) {
    const double ratio = rng.uniform(0.2, 5.0);
    for (std::size_t qi = 0; qi < body.qualities.size(); ++qi) {
      body.cav[qi][k] = std::clamp<Cycles>(
          static_cast<Cycles>(
              std::llround(static_cast<double>(body.cav[qi][k]) * ratio)),
          0, body.cwc[qi][k]);
    }
  }
  return body;
}

TEST(TableDecision, SlacksAreMonotoneInQuality) {
  // The precondition the binary search rests on: higher quality never
  // has more slack.
  util::Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    qos::testing::RandomSystemOptions opts;
    opts.num_levels = 1 + static_cast<int>(rng.uniform_i64(1, 7));
    const auto sys = qos::testing::random_system(rng, opts);
    const SlackTables tables = SlackTables::build(sys);
    for (std::size_t i = 0; i < tables.num_positions(); ++i) {
      for (std::size_t qi = 1; qi < sys.quality_levels().size(); ++qi) {
        EXPECT_LE(tables.slack_av(i, qi), tables.slack_av(i, qi - 1));
        EXPECT_LE(tables.slack_wc(i, qi), tables.slack_wc(i, qi - 1));
      }
    }
  }
}

TEST(TableDecision, BinarySearchMatchesLinearScanOnRandomSystems) {
  util::Rng rng(32);
  for (int trial = 0; trial < 40; ++trial) {
    qos::testing::RandomSystemOptions opts;
    opts.num_levels = 1 + static_cast<int>(rng.uniform_i64(1, 7));
    const auto sys = qos::testing::random_system(rng, opts);
    const SlackTables tables = SlackTables::build(sys);
    for (std::size_t i = 0; i < tables.num_positions(); ++i) {
      expect_scan_equivalence(tables, i);
    }
  }
}

TEST(TableDecision, BinarySearchMatchesLinearScanOnPeriodicTables) {
  util::Rng rng(34);
  for (int trial = 0; trial < 40; ++trial) {
    const int iterations = static_cast<int>(rng.uniform_i64(1, 6));
    toolgen::ToolInput in = qos::testing::random_body_input(rng, iterations);
    // Half the trials overload the period (below the qmin worst-case
    // total), so the drift term and negative slacks are exercised.
    rt::Cycles period = qos::testing::safe_period(in, rng);
    if (trial % 2 == 1) period = std::max<Cycles>(1, period / 2);
    const PeriodicBody body =
        toolgen::make_periodic_body(in, period * iterations);
    for (const PeriodicBody& b : {body, scale_averages(body, rng)}) {
      const PeriodicSlackTables tables = PeriodicSlackTables::build(b);
      for (std::size_t i = 0; i < tables.num_positions(); ++i) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        expect_scan_equivalence(tables, i);
      }
    }
  }
}

TEST(TableDecisionDeath, PeriodicBodyCostsMustNotFallAsQualityRises) {
  PeriodicBody body;
  body.order = {0, 1};
  body.qualities = {0, 1};
  body.cav = {{5, 5}, {8, 5}};
  body.cwc = {{10, 10}, {12, 10}};
  body.period = 100;
  body.iterations = 2;
  (void)PeriodicSlackTables::build(body);  // the monotone body builds
  PeriodicBody cheaper_average = body;
  cheaper_average.cav[1][1] = 4;
  EXPECT_DEATH(PeriodicSlackTables::build(cheaper_average),
               "must not decrease in q");
  PeriodicBody cheaper_worst_case = body;
  cheaper_worst_case.cwc[1][0] = 9;
  cheaper_worst_case.cav[1][0] = 9;
  EXPECT_DEATH(PeriodicSlackTables::build(cheaper_worst_case),
               "must not decrease in q");
}

TEST(TableDecision, ControllerDecisionsIdenticalToLinearScanReplay) {
  util::Rng rng(33);
  const SmoothnessPolicy policies[] = {
      {},          // unlimited
      {1, 1},      // classic per-decision smoothing
      {2, 3},      // strided anchor
  };
  for (int trial = 0; trial < 20; ++trial) {
    qos::testing::RandomSystemOptions opts;
    opts.num_levels = 1 + static_cast<int>(rng.uniform_i64(1, 7));
    const auto sys = qos::testing::random_system(rng, opts);
    const auto tables = std::make_shared<const SlackTables>(
        SlackTables::build(sys));
    const std::size_t nq = sys.quality_levels().size();
    for (const auto& policy : policies) {
      for (const bool soft : {false, true}) {
        TableController ctl(tables, policy, soft);
        // Replay the same random t sequence against a hand-rolled
        // linear-scan controller.
        std::vector<std::size_t> history;
        ctl.start_cycle();
        Cycles t = 0;
        for (std::size_t i = 0; !ctl.done(); ++i) {
          std::size_t hi = nq - 1;
          if (policy.max_step_up >= 0 &&
              history.size() >= static_cast<std::size_t>(policy.stride)) {
            hi = std::min(hi, history[history.size() -
                                      static_cast<std::size_t>(
                                          policy.stride)] +
                                  static_cast<std::size_t>(
                                      policy.max_step_up));
          }
          const std::size_t expected =
              linear_scan(*tables, i, hi, t, soft);
          history.push_back(expected);

          const Decision d = ctl.next(t);
          EXPECT_EQ(d.quality, sys.quality_levels()[expected])
              << "step " << i << " t=" << t;
          t += static_cast<Cycles>(rng.uniform_i64(0, 200));
        }
      }
    }
  }
}

}  // namespace
}  // namespace qosctrl::qos
