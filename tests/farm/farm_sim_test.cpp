#include "farm/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "farm/load_gen.h"
#include "farm/metrics.h"
#include "farm_test_util.h"

namespace qosctrl::farm {
namespace {

/// The acceptance scenario: 8 concurrent streams on 2 processors,
/// staggered joins, all table-controlled.
FarmScenario acceptance_scenario() {
  FarmScenario sc;
  for (int i = 0; i < 8; ++i) {
    StreamSpec s = tiny_stream(i, 6.0, 6);
    s.join_time = static_cast<rt::Cycles>(i) * (period_of(s) / 3);
    sc.streams.push_back(s);
  }
  return sc;
}

void expect_no_misses_on_admitted(const FarmResult& r) {
  for (const StreamOutcome& so : r.streams) {
    if (!so.placement.admitted) continue;
    if (so.spec.mode != pipe::ControlMode::kControlled) continue;
    EXPECT_EQ(so.display_misses, 0)
        << "stream " << so.spec.id << " missed its display deadline";
    EXPECT_EQ(so.result.total_deadline_misses, 0)
        << "stream " << so.spec.id << " missed a paced deadline";
    EXPECT_EQ(so.result.total_skips, 0)
        << "stream " << so.spec.id << " dropped a camera frame";
    // Queueing never ate into the reserved service budget: every
    // frame started within the latency slack K*P - B.
    EXPECT_LE(so.max_start_lag,
              latency_of(so.spec) - so.placement.table_budget)
        << "stream " << so.spec.id;
  }
}

TEST(FarmSim, AcceptanceScenarioAdmitsAllWithZeroMisses) {
  FarmConfig cfg;
  cfg.num_processors = 2;
  const FarmResult r = run_farm(acceptance_scenario(), cfg);
  EXPECT_EQ(r.total_streams, 8);
  EXPECT_EQ(r.admitted, 8) << summarize(r);
  EXPECT_EQ(r.rejected, 0);
  EXPECT_EQ(r.total_display_misses, 0);
  EXPECT_EQ(r.total_internal_misses, 0);
  EXPECT_EQ(r.total_skips, 0);
  expect_no_misses_on_admitted(r);
  // Both processors host streams.
  EXPECT_GT(r.processors[0].streams_hosted, 0);
  EXPECT_GT(r.processors[1].streams_hosted, 0);
  EXPECT_EQ(r.processors[0].frames_encoded +
                r.processors[1].frames_encoded,
            static_cast<int>(r.encoded_frames));
}

TEST(FarmSim, OversubscriptionRejectsInsteadOfMissing) {
  // Fast cameras: each stream's minimal commitment is ~85% of a
  // processor, so 8 streams cannot all fit on 2 processors.
  FarmScenario sc;
  for (int i = 0; i < 8; ++i) sc.streams.push_back(tiny_stream(i, 1.05, 5));
  FarmConfig cfg;
  cfg.num_processors = 2;
  const FarmResult r = run_farm(sc, cfg);
  EXPECT_GT(r.rejected, 0) << summarize(r);
  EXPECT_GT(r.admitted, 0);
  // Overload shows up as rejections, never as misses on admitted work.
  EXPECT_EQ(r.total_display_misses, 0);
  EXPECT_EQ(r.total_internal_misses, 0);
  expect_no_misses_on_admitted(r);
}

TEST(FarmSim, WorkerCountDoesNotChangeResults) {
  FarmConfig one;
  one.num_processors = 2;
  one.workers = 1;
  FarmConfig two = one;
  two.workers = 2;
  const FarmScenario sc = acceptance_scenario();
  const FarmResult a = run_farm(sc, one);
  const FarmResult b = run_farm(sc, two);
  // Bit-identical: compare the full JSON export.
  EXPECT_EQ(to_json(a), to_json(b));
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    ASSERT_EQ(a.streams[i].result.frames.size(),
              b.streams[i].result.frames.size());
    for (std::size_t f = 0; f < a.streams[i].result.frames.size(); ++f) {
      EXPECT_EQ(a.streams[i].result.frames[f].encode_cycles,
                b.streams[i].result.frames[f].encode_cycles);
      EXPECT_EQ(a.streams[i].result.frames[f].bits,
                b.streams[i].result.frames[f].bits);
      EXPECT_EQ(a.streams[i].result.frames[f].psnr,
                b.streams[i].result.frames[f].psnr);
    }
  }
}

TEST(FarmSim, DeterministicAcrossRuns) {
  FarmConfig cfg;
  cfg.num_processors = 2;
  const FarmScenario sc = acceptance_scenario();
  EXPECT_EQ(to_json(run_farm(sc, cfg)), to_json(run_farm(sc, cfg)));
}

TEST(FarmSim, GeneratedChurnScenarioStaysSafe) {
  // Poisson joins/leaves with mixed modes and geometries, several
  // seeds: admitted controlled streams never miss.
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    LoadGenConfig lg;
    lg.num_streams = 10;
    lg.resolutions = {{32, 32}, {48, 32}};
    lg.resolution_weights = {0.7, 0.3};
    lg.min_frames = 4;
    lg.max_frames = 8;
    lg.seed = seed;
    FarmConfig cfg;
    cfg.num_processors = 2;
    cfg.seed = seed * 97;
    const FarmResult r = run_farm(generate_scenario(lg), cfg);
    EXPECT_EQ(r.total_streams, 10);
    expect_no_misses_on_admitted(r);
  }
}

TEST(FarmSim, ConstantQualityStreamsRideAlong) {
  FarmScenario sc;
  for (int i = 0; i < 3; ++i) sc.streams.push_back(tiny_stream(i, 6.0, 5));
  StreamSpec c = tiny_stream(3, 6.0, 5);
  c.mode = pipe::ControlMode::kConstantQuality;
  c.constant_quality = 1;
  sc.streams.push_back(c);
  FarmConfig cfg;
  cfg.num_processors = 2;
  const FarmResult r = run_farm(sc, cfg);
  const StreamOutcome& so = r.streams[3];
  ASSERT_TRUE(so.placement.admitted) << so.placement.reason;
  EXPECT_EQ(so.display_misses, 0)
      << "the committed worst case covers the constant level";
  expect_no_misses_on_admitted(r);
}

TEST(FarmSim, UtilizationAndHistogramAreSane) {
  FarmConfig cfg;
  cfg.num_processors = 2;
  const FarmResult r = run_farm(acceptance_scenario(), cfg);
  long long hist_total = 0;
  for (const long long c : r.quality_histogram) hist_total += c;
  EXPECT_EQ(hist_total, r.encoded_frames);
  for (const ProcessorOutcome& p : r.processors) {
    EXPECT_GE(p.utilization(), 0.0);
    EXPECT_LE(p.utilization(), 1.0 + 1e-12);
    EXPECT_LE(p.peak_committed_utilization, 1.0 + 1e-12);
  }
  EXPECT_GT(r.fleet_mean_psnr, 20.0);
}

TEST(FarmSim, ExportsMentionKeyFields) {
  FarmConfig cfg;
  cfg.num_processors = 2;
  FarmScenario sc;
  sc.streams.push_back(tiny_stream(0, 6.0, 4));
  sc.streams.push_back(tiny_stream(1, 1.0, 4));  // likely rejected later
  const FarmResult r = run_farm(sc, cfg);
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"fleet\""), std::string::npos);
  EXPECT_NE(json.find("\"processors\""), std::string::npos);
  EXPECT_NE(json.find("\"streams\""), std::string::npos);
  EXPECT_NE(json.find("\"quality_histogram\""), std::string::npos);
  const std::string csv = to_csv(r);
  EXPECT_NE(csv.find("id,mode,"), std::string::npos);
  // The stream table: header plus one row per stream, terminated by
  // the blank line that separates it from the metrics table.
  const std::size_t stream_table_end = csv.find("\n\n");
  ASSERT_NE(stream_table_end, std::string::npos);
  EXPECT_EQ(std::count(csv.begin(),
                       csv.begin() + static_cast<std::ptrdiff_t>(
                                         stream_table_end + 1),
            '\n'),
            3);
  EXPECT_NE(csv.find("metric,kind,count,sum,min,max,p50,p95,p99"),
            std::string::npos);
  EXPECT_NE(csv.find("frames_completed,counter,"), std::string::npos);
  EXPECT_NE(csv.find("frame_latency_cycles,histogram,"), std::string::npos);
  const std::string sum = summarize(r);
  EXPECT_NE(sum.find("admitted="), std::string::npos);
  EXPECT_NE(sum.find("proc 0:"), std::string::npos);
}

}  // namespace
}  // namespace qosctrl::farm
