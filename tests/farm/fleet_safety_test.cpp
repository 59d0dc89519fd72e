// Seeded fleet safety property: the paper's Prop. 2.1 at fleet scale.
// Small generated loads (no faults) are played under every scheduling
// class crossed with the control plane's commitment paths — plain
// placement; C=D split + renegotiation + restore; and the same on two
// shards with the rebalancer and control batches on.  Every run must
// keep every admitted stream's display deadlines, report the same
// bytes at 1 and 4 workers, and account each rebalancer move once on
// each side.  The pinned mixes cover a few fixed runs; this sweeps
// seeds through the paths where shrinks, grows and migrations
// interleave (the split attempt runs on every rejected rung, though
// these loads never need a split: split_admission_test pins those).
#include <gtest/gtest.h>

#include <string>

#include "farm/load_gen.h"
#include "farm/metrics.h"
#include "farm_test_util.h"
#include "platform/cost_model.h"

namespace qosctrl::farm {
namespace {

enum class Paths { kPlain, kSplitRenegotiateRestore, kShardedRebalance };

struct Case {
  sched::PolicyKind policy;
  Paths paths;
};

std::string case_name(const Case& c) {
  const char* paths = c.paths == Paths::kPlain ? "plain"
                      : c.paths == Paths::kSplitRenegotiateRestore
                          ? "split+renegotiate+restore"
                          : "sharded+rebalance";
  return std::string(sched::policy_name(c.policy)) + "/" + paths;
}

/// A 16-stream churn load on 4 processors, shaped like
/// `qosfarm run --procs 4 --streams 16 --seed S --frames 3:12
/// --constant-frac 0.3 --period-factors 2,3,4`.
FarmScenario generated_load(std::uint64_t seed, const Case& c) {
  LoadGenConfig load;
  load.num_streams = 16;
  load.min_frames = 3;
  load.max_frames = 12;
  load.constant_mode_fraction = 0.3;
  load.period_factors = {2.0, 3.0, 4.0};
  load.seed = seed;
  FarmScenario sc = generate_scenario(load);
  sc.sched.policy.kind = c.policy;
  sc.sched.policy.context_switch_cost = platform::kContextSwitchCycles;
  sc.sched.policy.quantum = 1000000;
  if (c.paths != Paths::kPlain) {
    sc.sched.split = sc.sched.renegotiate = sc.sched.restore = true;
  }
  return sc;
}

FarmConfig fleet_config(std::uint64_t seed, const Case& c, int workers) {
  FarmConfig cfg;
  cfg.num_processors = 4;
  cfg.workers = workers;
  cfg.seed = seed * 0x9e3779b9ULL + 1;
  if (c.paths == Paths::kShardedRebalance) {
    cfg.shards = 2;
    cfg.rebalance_watermark = 0.8;
    cfg.control_epoch = 5000000;
  }
  return cfg;
}

TEST(FleetSafety, AdmittedStreamsNeverMissAcrossPathsAndWorkers) {
  long long admitted = 0, rejected = 0, migrations = 0, shrunk = 0,
            grown = 0;
  for (const sched::PolicyKind policy :
       {sched::PolicyKind::kNonPreemptiveEdf,
        sched::PolicyKind::kPreemptiveEdf, sched::PolicyKind::kQuantumEdf}) {
    for (const Paths paths : {Paths::kPlain, Paths::kSplitRenegotiateRestore,
                              Paths::kShardedRebalance}) {
      const Case c{policy, paths};
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(case_name(c) + " seed " + std::to_string(seed));
        const FarmScenario sc = generated_load(seed, c);
        const FarmResult one = run_farm(sc, fleet_config(seed, c, 1));
        const FarmResult four = run_farm(sc, fleet_config(seed, c, 4));

        EXPECT_EQ(one.total_display_misses, 0);
        for (const StreamOutcome& so : one.streams) {
          if (!so.placement.admitted) continue;
          EXPECT_EQ(so.display_misses, 0) << "stream " << so.spec.id;
        }
        EXPECT_EQ(report_digest(to_json(one)), report_digest(to_json(four)));

        long long in = 0, out = 0;
        for (const ShardOutcome& so : one.shard_outcomes) {
          in += so.migrations_in;
          out += so.migrations_out;
        }
        EXPECT_EQ(in, one.rebalance_migrations);
        EXPECT_EQ(out, one.rebalance_migrations);

        admitted += one.admitted;
        rejected += one.rejected;
        migrations += one.rebalance_migrations;
        shrunk += one.renegotiated_streams;
        grown += one.restored_streams;
      }
    }
  }
  // The sweep must reach its interesting regimes: contention (some
  // joins rejected), shrinks and grows, and the rebalancer actually
  // moving streams.
  EXPECT_GT(admitted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(shrunk, 0);
  EXPECT_GT(grown, 0);
  EXPECT_GT(migrations, 0);
}

}  // namespace
}  // namespace qosctrl::farm
