// The SLO engine's contract: the spec grammar parses (and rejects)
// exactly what docs/timeseries-slo.md promises, windowed evaluation
// merges rolling spans and counts violations against the error
// budget, multi-window burn alerts fire on entry into the fast+slow
// breach, and recovery objectives score per-failure latencies.
#include "obs/slo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "obs/timeseries.h"

namespace qosctrl::obs {
namespace {

SloSpec parse_ok(const std::string& text) {
  SloSpec spec;
  std::string error;
  EXPECT_TRUE(parse_slo(text, &spec, &error)) << text << ": " << error;
  return spec;
}

std::string parse_error(const std::string& text) {
  SloSpec spec;
  std::string error;
  EXPECT_FALSE(parse_slo(text, &spec, &error)) << text;
  return error;
}

TEST(SloParseTest, FullGrammar) {
  const SloSpec a = parse_ok("latency_p99<0.8*window@50ms");
  EXPECT_EQ(a.metric, SloMetric::kLatencyP99);
  EXPECT_FALSE(a.inclusive);
  EXPECT_DOUBLE_EQ(a.threshold, 0.8);
  EXPECT_TRUE(a.threshold_in_windows);
  EXPECT_EQ(a.span, 50 * kCyclesPerMs);
  EXPECT_EQ(a.scope, SloScope::kFleet);
  EXPECT_DOUBLE_EQ(a.budget, 0.05);

  const SloSpec b = parse_ok("miss_rate<=0.02:controlled%0.1");
  EXPECT_EQ(b.metric, SloMetric::kMissRate);
  EXPECT_TRUE(b.inclusive);
  EXPECT_DOUBLE_EQ(b.threshold, 0.02);
  EXPECT_FALSE(b.threshold_in_windows);
  EXPECT_EQ(b.scope, SloScope::kControlled);
  EXPECT_DOUBLE_EQ(b.budget, 0.1);

  // Suffix segments compose in any order; span units in Mc and c.
  const SloSpec c = parse_ok("conceal_rate<0.5%0.2@4Mc:constant");
  EXPECT_EQ(c.span, 4000000);
  EXPECT_EQ(c.scope, SloScope::kConstant);
  EXPECT_DOUBLE_EQ(c.budget, 0.2);
  EXPECT_EQ(parse_ok("queue_p99<16@400000c").span, 400000);

  // Aliases and the bare-w threshold shorthand.
  EXPECT_EQ(parse_ok("p95_latency<2w").metric, SloMetric::kLatencyP95);
  EXPECT_TRUE(parse_ok("recovery_latency<10w").threshold_in_windows);
}

TEST(SloParseTest, RejectsMalformedSpecs) {
  EXPECT_NE(parse_error("latency_p99"), "");           // no operator
  EXPECT_NE(parse_error("<5"), "");                    // no metric
  EXPECT_NE(parse_error("throughput<5"), "");          // unknown metric
  EXPECT_NE(parse_error("latency_p99<fast"), "");      // bad threshold
  EXPECT_NE(parse_error("latency_p99<0"), "");         // nonpositive latency
  EXPECT_NE(parse_error("latency_p99<5@fortnight"), "");  // bad span unit
  EXPECT_NE(parse_error("latency_p99<5:galaxy"), "");  // unknown scope
  EXPECT_NE(parse_error("miss_rate<=0.1%2"), "");      // budget > 1
  EXPECT_NE(parse_error("miss_rate<=0.1%0"), "");      // budget = 0
  EXPECT_NE(parse_error("miss_rate<2w"), "");   // rate in window multiples
  EXPECT_NE(parse_error("miss_rate<1.5"), "");  // rate > 1
  EXPECT_NE(parse_error("queue_p99<0.5w"), "");        // depth, not windows
  EXPECT_NE(parse_error("queue_p99<8:controlled"), "");    // fleet-only
  EXPECT_NE(parse_error("recovery_latency<5w:constant"), "");
  EXPECT_NE(parse_error("recovery_latency<5w@50ms"), "");  // no span
}

TEST(SloParseTest, RejectsSpansPastTheCycleRange) {
  // The largest span of each unit still parses exactly ...
  EXPECT_EQ(parse_ok("latency_p99<0.8w@9223372036854775807c").span,
            std::numeric_limits<rt::Cycles>::max());
  EXPECT_EQ(parse_ok("latency_p99<0.8w@9223372036854Mc").span,
            9223372036854LL * 1000000);
  EXPECT_EQ(parse_ok("latency_p99<0.8w@1152921504606ms").span,
            1152921504606LL * kCyclesPerMs);
  // ... and one past it is a bad span, not a wrapped or clamped one.
  EXPECT_NE(parse_error("latency_p99<0.8w@9999999999999ms"), "");
  EXPECT_NE(parse_error("latency_p99<0.8w@1152921504607ms"), "");
  EXPECT_NE(parse_error("latency_p99<0.8w@9223372036855Mc"), "");
  EXPECT_NE(parse_error("latency_p99<0.8w@9223372036854775808c"), "");
  EXPECT_NE(parse_error("latency_p99<0.8w@99999999999999999999c"), "");
}

// The reports copy the spec verbatim and print its threshold and
// budget as JSON numbers, so only finite values and specs without
// whitespace or control characters may pass.
TEST(SloParseTest, RejectsNonFiniteValuesAndWhitespace) {
  EXPECT_NE(parse_error("latency_p99<inf"), "");
  EXPECT_NE(parse_error("latency_p99<infinity"), "");
  EXPECT_NE(parse_error("latency_p99<nan"), "");
  EXPECT_NE(parse_error("latency_p99<1e999"), "");  // overflows to inf
  EXPECT_NE(parse_error("latency_p99<infw"), "");
  EXPECT_NE(parse_error("miss_rate<=0.1%nan"), "");
  EXPECT_NE(parse_error("miss_rate<=0.1%inf"), "");
  EXPECT_NE(parse_error("latency_p99<\n1.5w"), "");  // strtod skips it
  EXPECT_NE(parse_error("latency_p99< 1.5w"), "");
  EXPECT_NE(parse_error("latency_p99<1.5w\t"), "");
  EXPECT_NE(parse_error("miss_rate<=0.1% 0.5"), "");
  EXPECT_NE(parse_error("latency_p99<5@\x01" "50ms"), "");
  EXPECT_NE(parse_error("latency_p99<5\x7f"), "");
  // A huge but finite threshold is fine, and prints in exponent form
  // rather than through an out-of-range integer cast.
  const SloSpec huge = parse_ok("latency_p99<1e30");
  const SloReport report = evaluate_slos({huge}, SloInputs{});
  EXPECT_NE(slo_to_json(report).find("\"threshold\":1e+30,"),
            std::string::npos);
}

// The burn rates and the remaining budget divide by the budget, so a
// budget whose reciprocal overflows would print infinities into the
// JSON and CSV reports.
TEST(SloParseTest, RejectsBudgetsWhoseReciprocalOverflows) {
  EXPECT_NE(parse_error("miss_rate<0%4.9e-324"), "");
  EXPECT_NE(parse_error("miss_rate<0%1e-310"), "");
  const SloSpec tiny = parse_ok("miss_rate<0%1e-300");
  EXPECT_EQ(tiny.budget, 1e-300);
}

/// A series whose fleet latency track holds ten samples of `good`
/// cycles per window over [0, n), except ten of `bad` in the listed
/// windows — enough samples that a fully-bad window dominates a merged
/// span's p99 rank.
TimeSeries latency_series(long long n, long long good, long long bad,
                          const std::vector<long long>& bad_windows) {
  TimeSeries series{.window = 100, .tracks = {}};
  SeriesTrack& t = series.track("frame_latency_cycles");
  for (long long w = 0; w < n; ++w) {
    const bool is_bad = std::find(bad_windows.begin(), bad_windows.end(),
                                  w) != bad_windows.end();
    for (int i = 0; i < 10; ++i) {
      series.record(t, w * 100, is_bad ? bad : good);
    }
  }
  return series;
}

// Each latency percentile parses under both spellings, prints under
// its canonical name, and that name parses back to it.
TEST(SloParseTest, LatencyPercentilesRoundTripTheirNames) {
  const struct {
    const char* spelling;
    SloMetric metric;
    const char* name;
  } cases[] = {
      {"latency_p50", SloMetric::kLatencyP50, "latency_p50"},
      {"p50_latency", SloMetric::kLatencyP50, "latency_p50"},
      {"latency_p95", SloMetric::kLatencyP95, "latency_p95"},
      {"p95_latency", SloMetric::kLatencyP95, "latency_p95"},
      {"latency_p99", SloMetric::kLatencyP99, "latency_p99"},
      {"p99_latency", SloMetric::kLatencyP99, "latency_p99"},
  };
  for (const auto& c : cases) {
    const SloSpec spec = parse_ok(std::string(c.spelling) + "<0.5w@2ms");
    EXPECT_EQ(spec.metric, c.metric) << c.spelling;
    EXPECT_STREQ(slo_metric_name(spec.metric), c.name) << c.spelling;
    EXPECT_EQ(parse_ok(std::string(c.name) + "<0.5w").metric, c.metric);
  }
}

// Six windows of 100 latency samples: 60 fast, 36 middling and 4 slow,
// except window 3, where all of them are slower.  The
// percentile ranks (floor(p * 99)) land on the fast samples for p50,
// the middling ones for p95 and the slow ones for p99, so each metric
// scores its own rank, window by window.
TEST(SloEvalTest, EachLatencyPercentileScoresItsOwnRank) {
  TimeSeries series;
  series.window = 100;
  SeriesTrack& t = series.track("frame_latency_cycles");
  for (long long w = 0; w < 6; ++w) {
    const bool slow = w == 3;
    for (int i = 0; i < 100; ++i) {
      const long long v = i < 60 ? (slow ? 200 : 10)
                          : i < 96 ? (slow ? 2000 : 300)
                                   : (slow ? 20000 : 5000);
      series.record(t, w * 100, v);
    }
  }
  SloInputs in;
  in.series = &series;
  const struct {
    const char* spec;
    int violations;
    double worst_value;  ///< log2 bucket upper of the worst window
  } cases[] = {
      {"latency_p50<100%0.5", 1, 255},   // window 3's 200s
      {"p50_latency<16%0.5", 1, 255},    // 15 elsewhere: met
      {"latency_p95<1000%0.5", 1, 2047},  // window 3's 2000s
      {"p95_latency<400%0.5", 6, 2047},   // 511 elsewhere: violated
      {"latency_p99<1000%0.5", 6, 32767},  // 8191 elsewhere
  };
  for (const auto& c : cases) {
    const SloReport report = evaluate_slos({parse_ok(c.spec)}, in);
    ASSERT_EQ(report.objectives.size(), 1u);
    const SloOutcome& o = report.objectives[0];
    EXPECT_EQ(o.points, 6) << c.spec;
    EXPECT_EQ(o.violations, c.violations) << c.spec;
    EXPECT_EQ(o.worst_window, 3) << c.spec;
    EXPECT_DOUBLE_EQ(o.worst_value, c.worst_value) << c.spec;
  }
}

TEST(SloEvalTest, CountsViolationsAgainstTheBudget) {
  // 20 points, 1 bad window; budget 0.05 tolerates exactly one.
  const TimeSeries series = latency_series(20, 10, 5000, {7});
  SloInputs in;
  in.series = &series;

  SloSpec spec = parse_ok("latency_p99<1000%0.05");
  SloReport report = evaluate_slos({spec}, in);
  ASSERT_EQ(report.objectives.size(), 1u);
  const SloOutcome& o = report.objectives[0];
  EXPECT_EQ(o.points, 20);
  EXPECT_EQ(o.violations, 1);
  EXPECT_EQ(o.worst_window, 7);
  EXPECT_DOUBLE_EQ(o.worst_value, 8191);  // log2 bucket upper of 5000
  EXPECT_DOUBLE_EQ(o.budget_remaining, 0.0);
  EXPECT_TRUE(o.met);
  EXPECT_TRUE(report.all_met());

  // Two bad windows overspend the same budget.
  const TimeSeries worse = latency_series(20, 10, 5000, {7, 11});
  in.series = &worse;
  report = evaluate_slos({spec}, in);
  EXPECT_EQ(report.objectives[0].violations, 2);
  EXPECT_FALSE(report.objectives[0].met);
  EXPECT_FALSE(report.all_met());
}

TEST(SloEvalTest, RollingSpanMergesAdjacentWindows) {
  // One bad window; a 3-window rolling span keeps it in scope for
  // three consecutive evaluation points (p99 of the merged multiset
  // stays pinned to the outlier until it rolls out).
  const TimeSeries series = latency_series(10, 10, 5000, {4});
  SloInputs in;
  in.series = &series;
  const SloSpec spec = parse_ok("latency_p99<1000@300c%0.5");
  const SloReport report = evaluate_slos({spec}, in);
  EXPECT_EQ(report.objectives[0].points, 10);
  EXPECT_EQ(report.objectives[0].violations, 3);  // windows 4, 5, 6
}

TEST(SloEvalTest, WindowMultipleThresholdsScaleTheReference) {
  const TimeSeries series = latency_series(5, 800, 800, {});
  SloInputs in;
  in.series = &series;
  in.reference_window = 1000;
  // 0.5w = 500 < every p99 (1023): all points violate.  2w = 2000:
  // none do.  Same series, same data — only the anchor moved.
  EXPECT_FALSE(
      evaluate_slos({parse_ok("latency_p99<0.5w%0.9")}, in).all_met());
  EXPECT_TRUE(
      evaluate_slos({parse_ok("latency_p99<2*window")}, in).all_met());
}

TEST(SloEvalTest, RatesEvaluateWhereTheDenominatorHasData) {
  TimeSeries series{.window = 100, .tracks = {}};
  SeriesTrack& completed = series.track("frames_completed");
  SeriesTrack& misses = series.track("display_misses");
  // Windows 0-3 deliver 4 frames each; window 2 also misses twice.
  // Window 7 records a miss with no completions anywhere near it —
  // rates only evaluate where the denominator has data, so it must
  // not create an evaluation point (or a division by zero).
  for (long long w = 0; w < 4; ++w) {
    for (int i = 0; i < 4; ++i) series.record(completed, w * 100, 1);
  }
  series.record(misses, 200, 1);
  series.record(misses, 210, 1);
  series.record(misses, 700, 1);
  SloInputs in;
  in.series = &series;

  const SloSpec spec = parse_ok("miss_rate<=0.25%0.3");
  const SloReport report = evaluate_slos({spec}, in);
  const SloOutcome& o = report.objectives[0];
  // Points at windows 0..3 only: window 7 has no delivered frames.
  EXPECT_EQ(o.points, 4);
  EXPECT_EQ(o.violations, 1);  // 2/4 = 0.5 > 0.25 at window 2
  EXPECT_EQ(o.worst_window, 2);
  EXPECT_DOUBLE_EQ(o.worst_value, 0.5);
}

TEST(SloEvalTest, ScopedObjectivesReadClassTracks) {
  TimeSeries series{.window = 100, .tracks = {}};
  SeriesTrack& fleet = series.track("frame_latency_cycles");
  SeriesTrack& ctl = series.track("frame_latency_cycles@controlled");
  series.record(fleet, 0, 5000);  // fleet p99 breaches
  series.record(ctl, 0, 10);      // the controlled class is healthy
  SloInputs in;
  in.series = &series;

  EXPECT_FALSE(evaluate_slos({parse_ok("latency_p99<1000")}, in).all_met());
  EXPECT_TRUE(
      evaluate_slos({parse_ok("latency_p99<1000:controlled")}, in)
          .all_met());
  // A scope with no recorded streams is vacuous: zero points, met.
  const SloReport empty =
      evaluate_slos({parse_ok("latency_p99<1000:feedback")}, in);
  EXPECT_EQ(empty.objectives[0].points, 0);
  EXPECT_TRUE(empty.objectives[0].met);
}

TEST(SloEvalTest, BurnAlertFiresOnSustainedBreachOnly) {
  // One isolated bad window never pages (fast burn recovers before the
  // slow window accumulates); a sustained breach pages exactly once on
  // entry, not once per violating point.
  SloInputs in;
  const TimeSeries isolated = latency_series(20, 10, 5000, {5});
  in.series = &isolated;
  const SloSpec spec = parse_ok("latency_p99<1000%0.25");
  EXPECT_TRUE(
      evaluate_slos({spec}, in).objectives[0].alerts.empty());

  const TimeSeries sustained =
      latency_series(20, 10, 5000, {10, 11, 12, 13, 14, 15});
  in.series = &sustained;
  const SloReport report = evaluate_slos({spec}, in);
  const SloOutcome& o = report.objectives[0];
  ASSERT_EQ(o.alerts.size(), 1u);
  // Fast window: 4 points at budget 0.25 pages after the first
  // violation; the slow window needs enough breached points to cross
  // 1x, so the alert lands mid-burst — and carries both burn rates.
  EXPECT_GE(o.alerts[0].window, 10);
  EXPECT_LE(o.alerts[0].window, 15);
  EXPECT_GE(o.alerts[0].fast_burn, 1.0);
  EXPECT_GE(o.alerts[0].slow_burn, 1.0);
  EXPECT_FALSE(o.met);
}

TEST(SloEvalTest, RecoveryLatencyScoresFailures) {
  SloInputs in;
  in.reference_window = 1000;
  in.recovery_latencies = {500, 2500, -1};  // -1 = never recovered
  const SloSpec spec = parse_ok("recovery_latency<2w%0.5");
  const SloReport report = evaluate_slos({spec}, in);
  const SloOutcome& o = report.objectives[0];
  EXPECT_EQ(o.points, 3);
  EXPECT_EQ(o.violations, 2);  // 2500 >= 2000, and the unrecovered one
  // The unrecovered failure scores just over the threshold, so the
  // measured 2500-cycle recovery still ranks worst.
  EXPECT_EQ(o.worst_window, 1);
  EXPECT_DOUBLE_EQ(o.worst_value, 2500);
  EXPECT_FALSE(o.met);

  // Without failures the objective is vacuous and met.
  in.recovery_latencies.clear();
  EXPECT_TRUE(evaluate_slos({spec}, in).all_met());
}

TEST(SloReportTest, JsonAndSummaryShapeIsPinned) {
  SloInputs in;
  in.recovery_latencies = {100};
  const SloReport report =
      evaluate_slos({parse_ok("recovery_latency<200")}, in);
  EXPECT_EQ(slo_to_json(report),
            "{\"objectives\":[{\"spec\":\"recovery_latency<200\","
            "\"metric\":\"recovery_latency\",\"scope\":\"fleet\","
            "\"threshold\":200,\"threshold_in_windows\":false,\"span\":0,"
            "\"budget\":0.050000000000000003,\"points\":1,\"violations\":0,"
            "\"worst_window\":0,\"worst_value\":100,\"budget_remaining\":1,"
            "\"met\":true,\"alerts\":[]}],\"all_met\":true}");
  EXPECT_EQ(slo_summary(report),
            "slo recovery_latency<200: spec=\"recovery_latency<200\" "
            "metric=\"recovery_latency\" scope=\"fleet\" threshold=200 "
            "threshold_in_windows=false span=0 "
            "budget=0.050000000000000003 points=1 violations=0 "
            "worst_window=0 worst_value=100 budget_remaining=1 met=true "
            "alerts=0\n");
}

}  // namespace
}  // namespace qosctrl::obs
