// Fault injection and graceful degradation: the pinned properties of
// ISSUE 6 — overrun isolation under every policer policy, bounded
// recovery from a permanent processor failure, concealment distortion
// that is measured (strictly worse than lossless, never a crash), and
// bit-identical fault scenarios across worker counts and scheduling
// policies.
#include "farm/faults.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "farm/metrics.h"
#include "farm/simulator.h"
#include "farm_test_util.h"

namespace qosctrl::farm {
namespace {

/// 6 staggered light streams on `procs` processors — U well below 1,
/// so any miss is a fault-handling bug, not overload.
FarmScenario light_scenario(int streams = 6, int frames = 8) {
  FarmScenario sc;
  for (int i = 0; i < streams; ++i) {
    StreamSpec s = tiny_stream(i, 6.0, frames);
    s.join_time = static_cast<rt::Cycles>(i) * (period_of(s) / 3);
    sc.streams.push_back(s);
  }
  return sc;
}

TEST(FarmFaults, PlanIsAPureFunctionOfSeedStreamAndFrame) {
  FaultSpec spec;
  spec.seed = 99;
  spec.overrun.probability = 0.5;
  spec.loss.probability = 0.5;
  const FaultPlan a(spec, 7, 3);
  const FaultPlan b(spec, 7, 3);
  bool any_overrun = false, any_lost = false, any_clean = false;
  for (int f = 0; f < 64; ++f) {
    const FrameFaults fa = a.at(f);
    // Const re-derivation: asking twice (and from a twin plan) gives
    // the same draws.
    const FrameFaults fb = b.at(f);
    EXPECT_EQ(fa.overrun, b.at(f).overrun);
    EXPECT_EQ(fa.lost, fb.lost);
    any_overrun |= fa.overrun;
    any_lost |= fa.lost;
    any_clean |= !fa.overrun && !fa.lost;
  }
  EXPECT_TRUE(any_overrun);
  EXPECT_TRUE(any_lost);
  EXPECT_TRUE(any_clean);
  // A different stream id draws a different fault pattern.
  const FaultPlan other(spec, 7, 4);
  bool differs = false;
  for (int f = 0; f < 64; ++f) {
    const FrameFaults fa = a.at(f);
    const FrameFaults fo = other.at(f);
    differs |= fa.overrun != fo.overrun || fa.lost != fo.lost;
  }
  EXPECT_TRUE(differs);
}

// Pinned property (a): an overrunning stream never causes a deadline
// miss on co-resident streams — the policer cuts every inflated frame
// at its commitment under *all three* policies.
TEST(FarmFaults, OverrunsNeverCauseDeadlineMissesUnderAnyPolicy) {
  for (const OverrunPolicy policy :
       {OverrunPolicy::kAbortConceal, OverrunPolicy::kDowngrade,
        OverrunPolicy::kQuarantine}) {
    FarmScenario sc = light_scenario();
    sc.faults.seed = 17;
    sc.faults.overrun.probability = 0.6;
    sc.faults.overrun.factor = 4.0;
    sc.faults.overrun.policy = policy;
    sc.faults.overrun.quarantine_strikes = 2;
    FarmConfig cfg;
    cfg.num_processors = 2;
    const FarmResult r = run_farm(sc, cfg);
    SCOPED_TRACE(overrun_policy_name(policy));
    EXPECT_EQ(r.admitted, 6);
    // The injection actually fired and was policed...
    EXPECT_GT(r.faults_total.overruns_injected, 0) << summarize(r);
    EXPECT_EQ(r.faults_total.overruns_policed,
              r.faults_total.overruns_injected);
    // ...and isolation held: zero display misses fleet-wide, on the
    // offenders and their co-residents alike.
    EXPECT_EQ(r.total_display_misses, 0) << summarize(r);
    EXPECT_GT(r.total_concealed, 0);
    if (policy == OverrunPolicy::kQuarantine) {
      EXPECT_GT(r.faults_total.quarantines, 0) << summarize(r);
      EXPECT_GT(r.quarantined_streams, 0);
    }
  }
}

TEST(FarmFaults, AstronomicalOverrunFactorIsStillPoliced) {
  // A factor whose product leaves the int64 range must still read as
  // an overrun: every injected frame is cut at its committed worst case.
  for (const double factor : {1e15, 1e300}) {
    FarmScenario sc = light_scenario(4, 20);
    sc.faults.seed = 3;
    sc.faults.overrun.probability = 1.0;
    sc.faults.overrun.factor = factor;
    FarmConfig cfg;
    cfg.num_processors = 2;
    const FarmResult r = run_farm(sc, cfg);
    SCOPED_TRACE(factor);
    EXPECT_EQ(r.faults_total.overruns_injected, 80) << summarize(r);
    EXPECT_EQ(r.faults_total.overruns_policed, 80);
    EXPECT_EQ(r.total_display_misses, 0);
  }
}

TEST(FarmFaults, FramesNeverDisplayedScoreZero) {
  // Every frame overruns past any budget and is aborted, so no picture
  // ever reaches the viewer: a concealed frame must not keep the
  // encoder's scores.
  FarmScenario sc = light_scenario(4, 20);
  sc.faults.seed = 3;
  sc.faults.overrun.probability = 1.0;
  sc.faults.overrun.factor = 1e9;
  FarmConfig cfg;
  cfg.num_processors = 2;
  const FarmResult r = run_farm(sc, cfg);
  EXPECT_EQ(r.total_concealed, 80) << summarize(r);
  EXPECT_EQ(r.fleet_mean_psnr, 0.0);
  EXPECT_EQ(r.fleet_mean_ssim, 0.0);
  for (const StreamOutcome& so : r.streams) {
    for (const pipe::FrameRecord& rec : so.result.frames) {
      EXPECT_EQ(rec.psnr, 0.0) << "stream " << so.spec.id << " frame "
                               << rec.index;
      EXPECT_EQ(rec.ssim, 0.0);
    }
  }
}

TEST(FarmFaults, DowngradePolicyStepsDownTheCertifiedLadder) {
  FarmScenario sc = light_scenario();
  sc.faults.seed = 17;
  sc.faults.overrun.probability = 0.6;
  sc.faults.overrun.factor = 4.0;
  sc.faults.overrun.policy = OverrunPolicy::kDowngrade;
  FarmConfig cfg;
  cfg.num_processors = 2;
  const FarmResult r = run_farm(sc, cfg);
  EXPECT_GT(r.faults_total.forced_downgrades, 0) << summarize(r);
  EXPECT_EQ(r.total_display_misses, 0);
}

// Pinned property (b): after a permanent single-processor failure with
// the survivors under capacity, every resident stream is re-admitted
// (possibly degraded) and the recovery latency is bounded and
// reported.
TEST(FarmFaults, PermanentFailureReadmitsAllResidentsWithBoundedRecovery) {
  FarmScenario sc = light_scenario();
  const rt::Cycles period = period_of(sc.streams[0]);
  FailureEvent ev;
  ev.processor = 2;
  ev.time = 2 * period;  // mid-run: residents exist, frames remain
  ev.repair = 0;         // permanent
  sc.faults.failures.push_back(ev);
  FarmConfig cfg;
  cfg.num_processors = 3;
  const FarmResult r = run_farm(sc, cfg);

  ASSERT_EQ(r.failures.size(), 1u);
  const FailureOutcome& fo = r.failures[0];
  EXPECT_GT(fo.displaced, 0) << summarize(r);
  EXPECT_EQ(fo.readmitted, fo.displaced) << "survivors were under capacity";
  EXPECT_EQ(fo.dropped, 0);
  EXPECT_EQ(fo.recovered, fo.readmitted);
  EXPECT_EQ(r.failover_readmissions, fo.readmitted);
  EXPECT_EQ(r.failover_drops, 0);
  // Recovery latency is reported and bounded: the slowest stream met a
  // display deadline again within a handful of camera periods.
  EXPECT_GE(fo.first_recovery, 0);
  EXPECT_GE(fo.full_recovery, fo.first_recovery);
  EXPECT_LE(fo.full_recovery, 8 * period) << summarize(r);
  // Every failover segment landed on a survivor.
  EXPECT_TRUE(r.processors[2].failed);
  for (const StreamOutcome& so : r.streams) {
    for (const FailoverSegment& seg : so.failover) {
      EXPECT_TRUE(seg.placement.admitted);
      EXPECT_NE(seg.placement.processor, 2);
    }
  }
  const std::string sum = summarize(r);
  EXPECT_NE(sum.find("full_recovery_Mcycles="), std::string::npos);
}

TEST(FarmFaults, TransientFailureConcealsWithoutReadmission) {
  FarmScenario sc = light_scenario();
  const rt::Cycles period = period_of(sc.streams[0]);
  FailureEvent ev;
  ev.processor = 0;
  ev.time = period;
  ev.repair = 2 * period;  // transient blackout
  sc.faults.failures.push_back(ev);
  FarmConfig cfg;
  cfg.num_processors = 2;
  const FarmResult r = run_farm(sc, cfg);
  // Frames were lost to the blackout, but admission never moved: a
  // transient outage is ridden out in place.
  EXPECT_GT(r.faults_total.failure_drops, 0) << summarize(r);
  EXPECT_GT(r.processors[0].fault_conceals, 0);
  EXPECT_FALSE(r.processors[0].failed);
  EXPECT_EQ(r.failover_readmissions, 0);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].displaced, 0);
}

// Pinned property (c): loss + concealment strictly lowers measured
// quality versus the same lossless run — the telemetry sees real
// concealment distortion — and the decoder never crashes.
TEST(FarmFaults, ConcealmentDistortionIsMeasuredNotHidden) {
  const FarmScenario clean = light_scenario();
  FarmScenario lossy = clean;
  lossy.faults.seed = 23;
  lossy.faults.loss.probability = 0.35;
  FarmConfig cfg;
  cfg.num_processors = 2;
  const FarmResult a = run_farm(clean, cfg);
  const FarmResult b = run_farm(lossy, cfg);
  EXPECT_EQ(a.total_concealed, 0);
  EXPECT_GT(b.total_concealed, 0) << summarize(b);
  // Concealment propagates: a loss can invalidate the decoder's
  // reference for following frames, so concealed >= lost.
  EXPECT_GE(static_cast<int>(b.total_concealed),
            b.faults_total.lost_frames);
  EXPECT_LT(b.fleet_mean_psnr, a.fleet_mean_psnr);
  EXPECT_LT(b.fleet_mean_ssim, a.fleet_mean_ssim);
  // Concealment is not a deadline miss: the viewer saw stale output on
  // time.
  EXPECT_EQ(b.total_display_misses, 0);
}

/// The full fault soup: overruns, losses, one transient and one
/// permanent failure.
FarmScenario soup_scenario() {
  FarmScenario sc = light_scenario(6, 10);
  sc.faults.seed = 31;
  sc.faults.overrun.probability = 0.3;
  sc.faults.overrun.factor = 3.0;
  sc.faults.overrun.policy = OverrunPolicy::kDowngrade;
  sc.faults.loss.probability = 0.15;
  const rt::Cycles period = period_of(sc.streams[0]);
  FailureEvent transient;
  transient.processor = 0;
  transient.time = period;
  transient.repair = period;
  sc.faults.failures.push_back(transient);
  FailureEvent permanent;
  permanent.processor = 2;
  permanent.time = 3 * period;
  sc.faults.failures.push_back(permanent);
  return sc;
}

// Pinned determinism: the same fault scenario is bit-identical across
// worker counts — faults are drawn from forked seeds, never from
// execution interleaving.
TEST(FarmFaults, FaultScenarioIsBitIdenticalAcrossWorkerCounts) {
  const FarmScenario sc = soup_scenario();
  std::string reference;
  for (const int workers : {1, 2, 4}) {
    FarmConfig cfg;
    cfg.num_processors = 3;
    cfg.workers = workers;
    const std::string json = to_json(run_farm(sc, cfg));
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "workers=" << workers;
    }
  }
}

// Pinned delivery path: the fault soup drives every render, decode and
// score the delivery path has (delivered, lost, policer-aborted, outage
// drops, a repair's intra re-sync, failover).  Its report hashes to the
// same value at 1 and 4 workers.  Re-recorded when frames concealed
// before any picture was displayed started scoring 0 instead of
// keeping the encoder's scores, and when the always-zero
// admission_check_points counter left the report.
TEST(FarmFaults, FaultSoupReportDigestIsPinned) {
  for (const int workers : {1, 4}) {
    FarmConfig cfg;
    cfg.num_processors = 3;
    cfg.workers = workers;
    const FarmResult r = run_farm(soup_scenario(), cfg);
    EXPECT_GT(r.total_concealed, 0);
    EXPECT_GT(r.faults_total.overruns_policed, 0);
    EXPECT_EQ(report_digest(to_json(r)), 0xfe06d42da6605d10ULL)
        << "workers=" << workers;
  }
}

// The injected fault trace is a pure function of (scenario, faults,
// farm seed): byte-identical across every scheduling policy.
TEST(FarmFaults, FaultTraceIsIdenticalAcrossSchedulingPolicies) {
  FarmConfig cfg;
  cfg.num_processors = 3;
  FarmScenario sc = soup_scenario();
  std::string reference;
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kNonPreemptiveEdf,
        sched::PolicyKind::kPreemptiveEdf,
        sched::PolicyKind::kQuantumEdf}) {
    sc.sched.policy.kind = kind;
    sc.sched.policy.quantum = 1000000;
    const std::string trace = fault_trace(sc, cfg);
    EXPECT_FALSE(trace.empty());
    if (reference.empty()) {
      reference = trace;
    } else {
      EXPECT_EQ(trace, reference) << sched::policy_name(kind);
    }
    // The farm itself stays safe and accounts the same injected
    // faults under every policy.
    const FarmResult r = run_farm(sc, cfg);
    EXPECT_EQ(r.total_display_misses, 0)
        << sched::policy_name(kind) << "\n" << summarize(r);
  }
}

TEST(FarmFaults, ExportsCarryTheFaultSections) {
  FarmConfig cfg;
  cfg.num_processors = 3;
  const FarmResult r = run_farm(soup_scenario(), cfg);
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"faults\""), std::string::npos);
  EXPECT_NE(json.find("\"failures\""), std::string::npos);
  EXPECT_NE(json.find("\"overrun_policy\""), std::string::npos);
  EXPECT_NE(json.find("\"total_concealed\""), std::string::npos);
  const std::string csv = to_csv(r);
  EXPECT_NE(csv.find("lost_frames"), std::string::npos);
  EXPECT_NE(csv.find("failovers"), std::string::npos);
  const std::string sum = summarize(r);
  EXPECT_NE(sum.find("fault totals:"), std::string::npos);
  EXPECT_NE(sum.find("failure 0:"), std::string::npos);
  EXPECT_NE(sum.find("failure 1:"), std::string::npos);
}

TEST(FarmFaultsDeath, RejectsNonFiniteOrShrinkingOverrunFactor) {
  FarmConfig cfg;
  cfg.num_processors = 2;
  for (const double factor : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(), 1.0}) {
    FarmScenario sc = light_scenario(1, 2);
    sc.faults.overrun.probability = 1.0;
    sc.faults.overrun.factor = factor;
    EXPECT_DEATH(run_farm(sc, cfg), "overrun factor") << factor;
  }
}

// Library callers get the CLI's fault-spec guarantees.  A NaN
// probability compares false against everything, so it would quietly
// switch its fault class off; a strike budget below 1 would quarantine
// on every overrun, and negative periods would make quarantine a no-op.
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(FarmFaultsDeath, RejectsOverrunProbabilityOutsideUnitInterval) {
  FarmConfig cfg;
  cfg.num_processors = 2;
  for (const double p : {kNaN, 1.5, -0.1}) {
    FarmScenario sc = light_scenario(1, 2);
    sc.faults.overrun.probability = p;
    EXPECT_DEATH(run_farm(sc, cfg), "overrun probability") << p;
  }
}

TEST(FarmFaultsDeath, RejectsLossProbabilityOutsideUnitInterval) {
  FarmConfig cfg;
  cfg.num_processors = 2;
  for (const double p : {kNaN, 1.5, -0.1}) {
    FarmScenario sc = light_scenario(1, 2);
    sc.faults.loss.probability = p;
    EXPECT_DEATH(run_farm(sc, cfg), "loss probability") << p;
  }
}

TEST(FarmFaultsDeath, RejectsQuarantineStrikesBelowOne) {
  FarmConfig cfg;
  cfg.num_processors = 2;
  FarmScenario sc = light_scenario(1, 2);
  sc.faults.overrun.probability = 1.0;
  sc.faults.overrun.policy = OverrunPolicy::kQuarantine;
  sc.faults.overrun.quarantine_strikes = 0;
  EXPECT_DEATH(run_farm(sc, cfg), "strike");
}

// An infinite frame rate used to run silently at a far higher QP (a
// zero per-frame bit budget); 0 and NaN aborted later, inside a
// data-plane worker's rate controller.
TEST(FarmFaultsDeath, RejectsNonFiniteOrNonPositiveFrameRate) {
  for (const double rate :
       {std::numeric_limits<double>::infinity(), kNaN, 0.0, -25.0}) {
    FarmConfig cfg;
    cfg.num_processors = 2;
    cfg.frame_rate = rate;
    EXPECT_DEATH(run_farm(light_scenario(1, 2), cfg), "frame rate") << rate;
  }
}

TEST(FarmFaultsDeath, RejectsNegativeQuarantinePeriods) {
  FarmConfig cfg;
  cfg.num_processors = 2;
  FarmScenario sc = light_scenario(1, 2);
  sc.faults.overrun.probability = 1.0;
  sc.faults.overrun.policy = OverrunPolicy::kQuarantine;
  sc.faults.overrun.quarantine_periods = -1;
  EXPECT_DEATH(run_farm(sc, cfg), "quarantine periods");
}

// The overhead costs stay within platform::kMaxOverheadCycles, which
// keeps `cost + 2 * ctx` and `cost + migration_cost` exact; a negative
// surcharge would make migrated placements cheaper than local ones.
TEST(FarmFaultsDeath, RejectsMigrationCostOutsideCeiling) {
  for (const rt::Cycles cost : {rt::Cycles{-1},
                                platform::kMaxOverheadCycles + 1,
                                std::numeric_limits<rt::Cycles>::max()}) {
    FarmConfig cfg;
    cfg.num_processors = 2;
    cfg.admission.migration_cost = cost;
    EXPECT_DEATH(run_farm(light_scenario(1, 2), cfg), "migration cost")
        << cost;
  }
}

TEST(FarmFaultsDeath, RejectsContextSwitchCostAboveCeiling) {
  FarmConfig cfg;
  cfg.num_processors = 2;
  for (const rt::Cycles cost : {platform::kMaxOverheadCycles + 1,
                                std::numeric_limits<rt::Cycles>::max()}) {
    FarmScenario sc = light_scenario(1, 2);
    sc.sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
    sc.sched.policy.context_switch_cost = cost;
    EXPECT_DEATH(run_farm(sc, cfg), "context switch cost") << cost;
  }
}

TEST(FarmFaultsDeath, RejectsFailureRepairInstantOverflow) {
  FarmConfig cfg;
  cfg.num_processors = 2;
  FarmScenario sc = light_scenario(1, 2);
  sc.faults.failures.push_back(
      {0, std::numeric_limits<rt::Cycles>::max() - 100, 101});
  EXPECT_DEATH(run_farm(sc, cfg), "repair instant");
}

}  // namespace
}  // namespace qosctrl::farm
