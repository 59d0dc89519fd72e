// The windowed observability layer's determinism contract, pinned at
// the farm level: the merged time series, the SLO verdicts, and the
// per-buffer trace-drop attribution are pure functions of (scenario,
// config) — byte-identical across every worker x shard combination —
// and the series actually carries the signals the dashboard plots.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "farm/faults.h"
#include "farm/metrics.h"
#include "farm/presets.h"
#include "farm/simulator.h"
#include "farm_test_util.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace qosctrl::farm {
namespace {

constexpr rt::Cycles kWindow = 4000000;

std::vector<obs::SloSpec> test_slos() {
  const char* const kSpecs[] = {
      "latency_p99<1.5w@20ms",
      "miss_rate<=0.5%0.2",
      "conceal_rate<=0.5:controlled",
      "queue_p99<64",
      "recovery_latency<20w",
  };
  std::vector<obs::SloSpec> out;
  for (const char* text : kSpecs) {
    obs::SloSpec spec;
    std::string error;
    EXPECT_TRUE(obs::parse_slo(text, &spec, &error)) << text << ": " << error;
    out.push_back(spec);
  }
  return out;
}

FarmResult run_sampled(const FarmScenario& sc, int workers, int shards) {
  return run_combo(sc, workers, shards, kWindow, test_slos());
}

/// The series minus the `.../shard<k>` control tracks, which — like
/// the per-shard report sections — only exist on a sharded plane.
std::string shard_independent_json(const obs::TimeSeries& series) {
  obs::TimeSeries filtered;
  filtered.window = series.window;
  for (const auto& [name, track] : series.tracks) {
    if (name.find("/shard") == std::string::npos) {
      filtered.tracks[name] = track;
    }
  }
  return filtered.to_json();
}

TEST(TimeseriesDeterminismTest, SeriesAndVerdictsInvariantAcrossCombos) {
  const FarmScenario sc = small_flash_crowd();
  const FarmResult baseline = run_sampled(sc, 1, 1);
  const std::string series_json = shard_independent_json(baseline.series);
  const std::string slo_json = obs::slo_to_json(baseline.slo);
  ASSERT_GT(baseline.series.tracks.at("frames_completed").rbegin()->first, 0);
  ASSERT_EQ(baseline.slo.objectives.size(), 5u);

  for (const int workers : {1, 2, 4}) {
    for (const int shards : {1, 2, 4}) {
      const FarmResult run = run_sampled(sc, workers, shards);
      // Everything the data plane samples — and the verdicts computed
      // over it — is invariant across the whole grid.
      EXPECT_EQ(shard_independent_json(run.series), series_json)
          << "series diverged at workers=" << workers
          << " shards=" << shards;
      EXPECT_EQ(obs::slo_to_json(run.slo), slo_json)
          << "slo diverged at workers=" << workers << " shards=" << shards;
    }
    // With the shard topology fixed, the per-shard control tracks pin
    // byte for byte across workers too.
    EXPECT_EQ(run_sampled(sc, workers, 4).series.to_json(),
              run_sampled(sc, 1, 4).series.to_json())
        << "sharded series diverged at workers=" << workers;
  }
}

TEST(TimeseriesDeterminismTest, SeriesCarriesTheDashboardSignals) {
  const FarmScenario sc = small_flash_crowd();
  const FarmResult r = run_sampled(sc, 2, 2);

  auto count_of = [&](const std::string& name) {
    const auto it = r.series.tracks.find(name);
    if (it == r.series.tracks.end()) return 0LL;
    long long total = 0;
    for (const auto& [w, h] : it->second) total += h.count();
    return total;
  };

  // Every completed frame contributes a latency sample, an encode
  // sample, and a completion count; the class split sums to the fleet.
  const long long completed = count_of("frames_completed");
  EXPECT_GT(completed, 0);
  EXPECT_EQ(count_of("frame_latency_cycles"), completed);
  EXPECT_EQ(count_of("encode_cycles"), completed);
  EXPECT_EQ(count_of("frames_completed@controlled") +
                count_of("frames_completed@constant") +
                count_of("frames_completed@feedback"),
            completed);
  // The four encode phases profile together, once per encoded frame.
  const long long phase_samples = count_of("phase_motion_cycles");
  EXPECT_GT(phase_samples, 0);
  EXPECT_EQ(count_of("phase_dct_quant_cycles"), phase_samples);
  EXPECT_EQ(count_of("phase_entropy_cycles"), phase_samples);
  EXPECT_EQ(count_of("phase_reconstruct_cycles"), phase_samples);
  // The per-processor utilization heatmap tracks partition the fleet
  // busy track (run_farm copies each recorder's own busy series).
  long long busy_cpu = 0;
  for (int p = 0; p < 8; ++p) {
    busy_cpu += count_of("busy_cycles/cpu" + std::to_string(p));
  }
  EXPECT_EQ(busy_cpu, count_of("busy_cycles"));
  // The control plane recorded the admission decisions at join times.
  EXPECT_EQ(count_of("admitted") + count_of("rejected"), 24);
  EXPECT_EQ(count_of("admitted/shard0") + count_of("admitted/shard1"),
            count_of("admitted"));
}

TEST(TimeseriesDeterminismTest, SloVerdictsLandInReportsAndFaultRunsScore) {
  // A faulted, traced run with a permanent failure: recovery_latency
  // gets real inputs, and the verdict sections appear in every report
  // format without disturbing run-to-run identity.
  FarmScenario sc = small_flash_crowd();
  sc.faults.loss.probability = 0.2;
  FailureEvent ev;
  ev.processor = 1;
  ev.time = 30000000;
  sc.faults.failures.push_back(ev);

  const FarmResult a = run_sampled(sc, 2, 1);
  const FarmResult b = run_sampled(sc, 2, 1);
  EXPECT_EQ(to_json(a), to_json(b));
  EXPECT_EQ(summarize(a), summarize(b));

  const std::string json = to_json(a);
  EXPECT_NE(json.find("\"timeseries\":{\"window\":4000000"),
            std::string::npos);
  EXPECT_NE(json.find("\"slo\":{\"objectives\":["), std::string::npos);
  EXPECT_NE(json.find("\"trace_dropped_per_buffer\":["), std::string::npos);
  EXPECT_NE(summarize(a).find("timeseries: window=4000000"),
            std::string::npos);
  EXPECT_NE(summarize(a).find("slo latency_p99<1.5w@20ms:"),
            std::string::npos);
  // The failure displaced streams, so the recovery objective scored
  // at least one point.
  ASSERT_EQ(a.slo.objectives.size(), 5u);
  EXPECT_GT(a.slo.objectives[4].points, 0);

  // Off by default: no ts_window, no slos -> no sections, no tracks.
  FarmConfig off;
  off.num_processors = 8;
  const FarmResult plain = run_farm(sc, off);
  EXPECT_EQ(plain.series.window, 0);
  EXPECT_TRUE(plain.series.tracks.empty());
  EXPECT_TRUE(plain.slo.objectives.empty());
  EXPECT_EQ(to_json(plain).find("\"timeseries\""), std::string::npos);
  EXPECT_EQ(to_json(plain).find("\"slo\""), std::string::npos);
}

// A negative window (what a wrapped 64-bit CLI value becomes) would
// silently turn sampling off and let every windowed SLO pass on zero
// points; run_farm refuses it instead.
TEST(TimeseriesDeterminismDeathTest, RejectsNegativeWindow) {
  FarmConfig cfg;
  cfg.num_processors = 2;
  cfg.ts_window = -1;
  EXPECT_DEATH(run_farm(small_flash_crowd(), cfg), "time-series window");
}

// Without a window a windowed objective would score zero points and
// read met, so run_farm refuses it; recovery_latency reads the failure
// outcomes and needs none.
TEST(TimeseriesDeterminismDeathTest, RejectsWindowedSloWithoutWindow) {
  FarmConfig cfg;
  cfg.num_processors = 2;
  const std::vector<obs::SloSpec> slos = test_slos();
  ASSERT_EQ(slos.back().metric, obs::SloMetric::kRecoveryLatency);
  cfg.slos = {slos.back()};
  EXPECT_EQ(run_farm(small_flash_crowd(), cfg).slo.objectives.size(), 1u);
  for (std::size_t i = 0; i + 1 < slos.size(); ++i) {
    cfg.slos = {slos[i]};
    EXPECT_DEATH(run_farm(small_flash_crowd(), cfg),
                 "windowed SLO needs a time-series window")
        << slos[i].text;
  }
}

}  // namespace
}  // namespace qosctrl::farm
