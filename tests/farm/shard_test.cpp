// The sharded control plane's contract, pinned three ways:
//
//  * Invariance — on a non-saturating homogeneous load, reports and
//    traces are byte-identical across every (workers, shards)
//    combination: sharding reorganizes the control plane, it must not
//    move a single placement or reorder a single trace event.
//  * Router equivalence at scale — a saturating 1200-stream storm
//    gets the same verdict, processor, and budget from 32 shards as
//    from one shard, stream by stream.
//  * Rebalancer conservation — every migration is admit-first: the
//    stream is re-admitted on the cold shard before the hot shard
//    releases it, so migrations_in == migrations_out ==
//    rebalance_migrations and every admitted stream still serves its
//    full frame count.
//
// Each processor's peak_committed_utilization is the plane's too: the
// maximum after every mutation, split tails and restore growth
// included.  A rebalance move never renegotiates, and one the
// rebalancer rejects leaves no trace.
#include "farm/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "farm/load_gen.h"
#include "farm/metrics.h"
#include "farm/presets.h"
#include "farm/simulator.h"
#include "farm_test_util.h"
#include "obs/trace.h"
#include "platform/cost_model.h"
#include "util/rng.h"

namespace qosctrl::farm {
namespace {

struct RunArtifacts {
  std::string csv;
  std::string chrome;
  std::string summary;
  std::string json;
};

RunArtifacts artifacts(const FarmScenario& sc, int workers, int shards) {
  const FarmResult r = run_combo(sc, workers, shards);
  RunArtifacts out;
  out.csv = to_csv(r);
  out.chrome = obs::export_chrome_trace(
      r.trace, static_cast<int>(r.processors.size()));
  out.summary = summarize(r);
  out.json = to_json(r);
  return out;
}

TEST(ShardPlaneTest, ReportsInvariantAcrossWorkersAndShards) {
  const FarmScenario sc = small_flash_crowd();
  const RunArtifacts baseline = artifacts(sc, 1, 1);
  ASSERT_FALSE(baseline.csv.empty());
  for (const int workers : {1, 2, 4}) {
    for (const int shards : {1, 2, 4}) {
      const RunArtifacts run = artifacts(sc, workers, shards);
      // The cross-shard identity artifacts: per-stream report rows and
      // the merged schedule trace.
      EXPECT_EQ(run.csv, baseline.csv)
          << "csv diverged at workers=" << workers << " shards=" << shards;
      EXPECT_EQ(run.chrome, baseline.chrome)
          << "trace diverged at workers=" << workers << " shards=" << shards;
    }
    // summarize/to_json add per-shard sections when shards > 1, so
    // they are pinned across workers at a fixed shard count instead.
    const RunArtifacts sharded = artifacts(sc, workers, 4);
    const RunArtifacts sharded_base = artifacts(sc, 1, 4);
    EXPECT_EQ(sharded.summary, sharded_base.summary)
        << "summary diverged at workers=" << workers;
    EXPECT_EQ(sharded.json, sharded_base.json)
        << "json diverged at workers=" << workers;
  }
}

TEST(ShardPlaneTest, StormVerdictsMatchSingleController) {
  PresetParams pp;
  pp.num_streams = 1200;  // 64 processors hold 256: most joins reject
  const FarmScenario sc = compile_preset(PresetKind::kFlashCrowd, pp);
  TableCache tables(platform::figure5_cost_table());

  ShardPlaneConfig single;
  single.shards = 1;
  ShardedControlPlane one(64, single, AdmissionConfig{}, &tables, sc.sched);
  ShardPlaneConfig sharded;
  sharded.shards = 32;
  ShardedControlPlane many(64, sharded, AdmissionConfig{}, &tables, sc.sched);

  long long admitted = 0;
  for (const StreamSpec& spec : sc.streams) {
    const Placement a = one.admit(spec);
    const Placement b = many.admit(spec);
    ASSERT_EQ(a.admitted, b.admitted) << "stream " << spec.id;
    if (!a.admitted) continue;
    ++admitted;
    EXPECT_EQ(a.processor, b.processor) << "stream " << spec.id;
    EXPECT_EQ(a.table_budget, b.table_budget) << "stream " << spec.id;
    EXPECT_EQ(a.committed_cost, b.committed_cost) << "stream " << spec.id;
    EXPECT_EQ(a.degraded, b.degraded) << "stream " << spec.id;
  }
  EXPECT_EQ(admitted, 256);

  // The router's own books balance: every admit landed on some shard.
  long long sharded_admits = 0, sharded_rejects = 0;
  for (int s = 0; s < many.num_shards(); ++s) {
    sharded_admits += many.shard_stats(s).admitted;
    sharded_rejects += many.shard_stats(s).rejected;
  }
  EXPECT_EQ(sharded_admits, admitted);
  EXPECT_EQ(sharded_admits + sharded_rejects,
            static_cast<long long>(sc.streams.size()));
}

TEST(ShardPlaneTest, RebalancerConservesStreams) {
  FarmScenario sc;
  for (int i = 0; i < 9; ++i) {
    StreamSpec s;
    s.id = i;
    s.width = 64;
    s.height = 48;
    s.frame_period = default_frame_period(12) * 4;
    // Least-loaded round-robin puts 0,1,4,5 on shard 0 and 2,3,6,7 on
    // shard 1; the early leavers empty shard 0, and id 8's late join
    // trips the post-batch rebalancer while shard 1 is still hot.
    const bool short_lived = i == 0 || i == 1 || i == 4 || i == 5;
    s.num_frames = short_lived ? 2 : 12;
    s.join_time = i < 8 ? static_cast<rt::Cycles>(i) * 1000
                        : static_cast<rt::Cycles>(30000000);
    sc.streams.push_back(s);
  }

  FarmConfig cfg;
  cfg.num_processors = 4;
  cfg.shards = 2;
  cfg.rebalance_watermark = 0.55;
  cfg.control_epoch = 1000000;
  const FarmResult r = run_farm(sc, cfg);

  // The first eight arrivals share one control epoch; id 8 gets its
  // own batch.
  EXPECT_EQ(r.join_batches, 2);
  EXPECT_EQ(r.max_join_batch, 8);
  ASSERT_GE(r.rebalance_migrations, 1);

  long long in = 0, out = 0;
  ASSERT_EQ(r.shard_outcomes.size(), 2u);
  for (const ShardOutcome& so : r.shard_outcomes) {
    in += so.migrations_in;
    out += so.migrations_out;
  }
  EXPECT_EQ(in, r.rebalance_migrations);
  EXPECT_EQ(out, r.rebalance_migrations);

  int migrated = 0;
  for (const StreamOutcome& so : r.streams) {
    ASSERT_TRUE(so.placement.admitted) << "stream " << so.spec.id;
    // Conservation: admit-first migration never drops a frame — every
    // stream serves its full lifetime across its segments.
    EXPECT_EQ(static_cast<int>(so.result.frames.size()), so.spec.num_frames)
        << "stream " << so.spec.id;
    for (const FailoverSegment& seg : so.failover) {
      ASSERT_TRUE(seg.placement.admitted);
      EXPECT_EQ(seg.failure_index, -1);  // rebalance, not a failure
      EXPECT_GT(seg.first_frame, 0);
      EXPECT_LT(seg.first_frame, so.spec.num_frames);
      ++migrated;
    }
  }
  EXPECT_EQ(migrated, r.rebalance_migrations);

  // Determinism: the rebalancer is part of the control plane's pure
  // call sequence, so a replay is byte-identical.
  const FarmResult again = run_farm(sc, cfg);
  EXPECT_EQ(to_csv(r), to_csv(again));
  EXPECT_EQ(to_json(r), to_json(again));
}

/// `qosfarm run --procs <procs> --seed <seed>` over `load` under
/// `sched`, configured as qosfarm configures it: the default
/// context-switch cost, a 1e6-cycle quantum and its farm-seed
/// derivation.
FarmResult run_like_qosfarm(LoadGenConfig load, SchedulingSpec sched,
                            int procs, std::uint64_t seed) {
  load.seed = seed;
  FarmScenario sc = generate_scenario(load);
  sched.policy.context_switch_cost = platform::kContextSwitchCycles;
  sched.policy.quantum = 1000000;
  sc.sched = sched;
  FarmConfig cfg;
  cfg.num_processors = procs;
  cfg.workers = procs;
  cfg.seed = seed * 0x9e3779b9ULL + 1;
  return run_farm(sc, cfg);
}

// qosfarm run --procs 4 --streams 16 --split --seed 24 --policy
// preemptive --constant-frac 0.5 --period-factors 2,3,4: a C=D tail
// commits load to a processor no placement heads, and the peak counts
// it.
TEST(ShardPlanePeaks, SplitTailRaisesItsProcessorsPeak) {
  LoadGenConfig load;
  load.num_streams = 16;
  load.constant_mode_fraction = 0.5;
  load.period_factors = {2.0, 3.0, 4.0};
  SchedulingSpec sched;
  sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
  sched.split = true;
  const FarmResult r = run_like_qosfarm(load, sched, 4, 24);
  ASSERT_EQ(r.split_streams, 1) << summarize(r);
  for (const StreamOutcome& so : r.streams) {
    if (!so.placement.split) continue;
    const ProcessorOutcome& tail = r.processors.at(
        static_cast<std::size_t>(so.placement.tail_processor));
    EXPECT_GT(tail.peak_committed_utilization, 0.0)
        << "tail processor " << so.placement.tail_processor;
  }
}

// qosfarm run --procs 2 --streams 24 --renegotiate --restore --seed 26
// --frames 4:40 --period-factors 3,4,6: a departure's restore pass
// grows processor 1 past anything an admission left it at.
TEST(ShardPlanePeaks, RestorePassRaisesThePeak) {
  LoadGenConfig load;
  load.num_streams = 24;
  load.min_frames = 4;
  load.max_frames = 40;
  load.period_factors = {3.0, 4.0, 6.0};
  SchedulingSpec sched;
  sched.renegotiate = true;
  sched.restore = true;
  const FarmResult r = run_like_qosfarm(load, sched, 2, 26);
  ASSERT_GT(r.restored_streams, 0) << summarize(r);
  EXPECT_GE(r.processors.at(1).peak_committed_utilization, 0.9875);
}

// Randomized: on a split + renegotiate + restore plane, seeded
// sequences of admits, releases, failures and rebalance steps never
// leave a processor above its recorded peak.
TEST(ShardPlanePeaks, PeakBoundsEveryCommitmentAfterEveryCall) {
  TableCache tables(platform::figure5_cost_table());
  SchedulingSpec sched;
  sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
  sched.split = true;
  sched.renegotiate = true;
  sched.restore = true;
  ShardPlaneConfig pc;
  pc.shards = 2;
  pc.rebalance_watermark = 0.3;
  int splits = 0, grows = 0, moves = 0, failures = 0;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    LoadGenConfig load;
    load.num_streams = 80;
    load.constant_mode_fraction = 0.3;
    load.seed = seed;
    const FarmScenario sc = generate_scenario(load);
    ShardedControlPlane plane(4, pc, AdmissionConfig{}, &tables, sched);
    util::Rng rng(seed);
    std::vector<int> live;
    bool failed = false;  // one failure per sequence keeps survivors
    rt::Cycles now = 0;
    std::size_t next = 0;
    auto check = [&](const char* call) {
      for (int p = 0; p < plane.num_processors(); ++p) {
        ASSERT_GE(plane.peak_committed_utilization(p),
                  plane.committed_utilization(p))
            << "seed " << seed << " processor " << p << " after " << call;
      }
    };
    while (next < sc.streams.size()) {
      const double roll = rng.uniform_01();
      if (roll < 0.7 || live.empty()) {
        const StreamSpec& spec = sc.streams[next++];
        now = std::max(now, spec.join_time);
        const Placement pl = plane.admit(spec);
        if (pl.admitted) live.push_back(spec.id);
        splits += pl.split ? 1 : 0;
        check("admit");
      } else if (roll < 0.9) {
        const auto k = static_cast<std::size_t>(
            rng.uniform_i64(0, static_cast<std::int64_t>(live.size()) - 1));
        plane.release(live[k], now);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        check("release");
      } else if (roll < 0.92 && !failed) {
        plane.fail_processor(static_cast<int>(rng.uniform_i64(0, 3)));
        failed = true;
        ++failures;
        check("fail_processor");
      } else {
        ShardMigration mg;
        moves += plane.rebalance_step(now, &mg) ? 1 : 0;
        check("rebalance_step");
      }
      for (const BudgetRenegotiation& r : plane.take_renegotiations()) {
        grows += r.grow ? 1 : 0;
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The sequences reach every path that can raise a commitment.
  EXPECT_GT(splits, 0);
  EXPECT_GT(grows, 0);
  EXPECT_GT(moves, 0);
  EXPECT_GT(failures, 0);
}

// Randomized: a rebalance move never renegotiates, and a move the
// rebalancer rejects leaves no trace.  On 4-processor, 2-shard planes
// with renegotiation on (restore off and on), every rebalance_step
// that returns false must leave each processor's commitments and the
// renegotiation queue exactly as they were, and one that moves a
// stream may only queue the source shard's restore grows — never a
// shrink.
TEST(ShardPlaneRebalance, RejectedMoveLeavesNoTrace) {
  TableCache tables(platform::figure5_cost_table());
  ShardPlaneConfig pc;
  pc.shards = 2;
  pc.rebalance_watermark = 0.3;
  int idle_steps = 0, moves = 0;
  for (const bool restore : {false, true}) {
    SchedulingSpec sched;
    sched.renegotiate = true;
    sched.restore = restore;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      LoadGenConfig load;
      load.num_streams = 40;
      load.seed = seed;
      const FarmScenario sc = generate_scenario(load);
      ShardedControlPlane plane(4, pc, AdmissionConfig{}, &tables, sched);
      util::Rng rng(seed);
      std::vector<int> live;
      rt::Cycles now = 0;
      for (const StreamSpec& spec : sc.streams) {
        now = std::max(now, spec.join_time);
        if (plane.admit(spec).admitted) live.push_back(spec.id);
        if (!live.empty() && rng.uniform_01() < 0.3) {
          const auto k = static_cast<std::size_t>(rng.uniform_i64(
              0, static_cast<std::int64_t>(live.size()) - 1));
          plane.release(live[k], now);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        }
        plane.take_renegotiations();

        std::vector<double> util;
        std::vector<std::vector<int>> residents;
        for (int p = 0; p < plane.num_processors(); ++p) {
          util.push_back(plane.committed_utilization(p));
          residents.push_back(plane.resident_stream_ids(p));
        }
        ShardMigration mg;
        const bool moved = plane.rebalance_step(now, &mg);
        const std::vector<BudgetRenegotiation> records =
            plane.take_renegotiations();
        if (moved) {
          ++moves;
          for (const BudgetRenegotiation& r : records) {
            ASSERT_TRUE(r.grow) << "seed " << seed << ": the move of stream "
                                << mg.stream_id << " shrank stream "
                                << r.stream_id;
          }
          continue;
        }
        ++idle_steps;
        ASSERT_TRUE(records.empty())
            << "seed " << seed << " restore " << restore << ": a step that "
            << "moved nothing queued " << records.size() << " records";
        for (int p = 0; p < plane.num_processors(); ++p) {
          ASSERT_EQ(plane.committed_utilization(p),
                    util[static_cast<std::size_t>(p)])
              << "seed " << seed << " processor " << p;
          ASSERT_EQ(plane.resident_stream_ids(p),
                    residents[static_cast<std::size_t>(p)])
              << "seed " << seed << " processor " << p;
        }
      }
    }
  }
  EXPECT_GT(moves, 0);
  EXPECT_GT(idle_steps, 0);
}

}  // namespace
}  // namespace qosctrl::farm
