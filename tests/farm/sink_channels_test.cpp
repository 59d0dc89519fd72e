// The farm's three observability sinks, pinned byte for byte and
// cross-checked against each other.
//
//  * Pin: the metrics registry, the merged time series and the Chrome
//    trace export of three scenarios hash (FNV-1a) to fixed values at
//    1 and 4 workers.  Between them the scenarios emit every event kind
//    the simulator has, so any change to what the data or control plane
//    records — a missing, extra or reordered emission — moves a digest.
//  * Report pin: the JSON report (build provenance stripped) and the
//    CSV report of the same runs hash to fixed values, so the report
//    writers are held to the bytes they produced before they shared
//    one writer.  faulted_preemptive's SLOs cover an integral, a
//    fractional and a window-multiple threshold and raise an alert.
//  * Agreement: within one run the registry counters, the series track
//    counts and the trace event counts describe the same frames.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "farm/load_gen.h"
#include "farm/metrics.h"
#include "farm/presets.h"
#include "farm/probe.h"
#include "farm/simulator.h"
#include "farm_test_util.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "platform/cost_model.h"
#include "util/json.h"

namespace qosctrl::farm {
namespace {

std::vector<obs::SloSpec> slos(std::initializer_list<const char*> texts) {
  std::vector<obs::SloSpec> out;
  for (const char* text : texts) {
    obs::SloSpec spec;
    std::string error;
    EXPECT_TRUE(obs::parse_slo(text, &spec, &error)) << text << ": " << error;
    out.push_back(spec);
  }
  return out;
}

/// trace_determinism_test's faulted scenario under preemptive EDF:
/// overruns, losses, a transient and a permanent failure, with
/// renegotiation and restore live.  It is loaded to nine streams and its
/// failures fall inside the run, so frames are preempted, concealed in
/// service, failed over and served again after the repair.  It is
/// sampled into series and scored against SLOs, one of which is tight
/// enough to raise a burn-rate alert.
std::pair<FarmScenario, FarmConfig> faulted_preemptive() {
  LoadGenConfig load;
  load.num_streams = 9;
  load.resolutions = {{32, 32}};
  load.resolution_weights = {1.0};
  load.min_frames = 6;
  load.max_frames = 10;
  load.seed = 13;
  FarmScenario sc = generate_scenario(load);
  sc.sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
  sc.sched.policy.context_switch_cost = platform::kContextSwitchCycles;
  sc.sched.policy.quantum = 1000000;
  sc.sched.renegotiate = true;
  sc.sched.restore = true;
  sc.faults.overrun.probability = 0.3;
  sc.faults.overrun.factor = 3.0;
  sc.faults.loss.probability = 0.15;
  sc.faults.failures.push_back({1, 6000000, 4000000});
  sc.faults.failures.push_back({2, 10000000, 0});
  FarmConfig cfg;
  cfg.num_processors = 3;
  cfg.ts_window = 4000000;
  cfg.slos = slos({"latency_p99<1.5w@20ms", "miss_rate<=0.5:controlled%0.2",
                   "conceal_rate<=0.01", "queue_p99<16",
                   "recovery_latency<10w"});
  return {sc, cfg};
}

/// The split-limited mix with C=D splitting on: the constant-quality
/// newcomer runs as a head on processor 0 and a session-less relay on
/// processor 1.
std::pair<FarmScenario, FarmConfig> split_limited() {
  FarmScenario sc = split_limited_mix();
  sc.sched.split = true;
  FarmConfig cfg = two_proc_config();
  cfg.ts_window = 4 * kM;
  return {sc, cfg};
}

/// shard_test's rebalancer scenario: eight joins in one control epoch
/// over two shards, early leavers that empty shard 0, then a late join
/// whose batch trips the rebalancer.  Overruns quarantine their
/// offenders, and a permanent failure strands streams no survivor can
/// host.
std::pair<FarmScenario, FarmConfig> sharded_rebalance() {
  FarmScenario sc;
  for (int i = 0; i < 9; ++i) {
    StreamSpec s;
    s.id = i;
    s.width = 64;
    s.height = 48;
    s.frame_period = default_frame_period(12) * 4;
    const bool short_lived = i == 0 || i == 1 || i == 4 || i == 5;
    s.num_frames = short_lived ? 2 : 12;
    s.join_time = i < 8 ? static_cast<rt::Cycles>(i) * 1000
                        : static_cast<rt::Cycles>(30000000);
    sc.streams.push_back(s);
  }
  sc.faults.overrun.probability = 0.4;
  sc.faults.overrun.factor = 3.0;
  sc.faults.overrun.policy = OverrunPolicy::kQuarantine;
  sc.faults.overrun.quarantine_strikes = 2;
  for (const int p : {1, 2, 3}) sc.faults.failures.push_back({p, 31000000, 0});
  FarmConfig cfg;
  cfg.num_processors = 4;
  cfg.shards = 2;
  cfg.rebalance_watermark = 0.55;
  cfg.control_epoch = 1000000;
  cfg.ts_window = 4000000;
  return {sc, cfg};
}

struct Pinned {
  const char* name;
  std::pair<FarmScenario, FarmConfig> (*make)();
  std::uint64_t metrics;
  std::uint64_t series;
  std::uint64_t trace;
};

const std::array<Pinned, 3> kPinned = {{
    {"faulted_preemptive", faulted_preemptive, 0xc9f713dcce49dd38ULL,
     0xfd27d7d313af3744ULL, 0x80fbe22cfe4e5cc3ULL},
    {"split_limited_mix", split_limited, 0x651a6d694229fa29ULL,
     0x407d86b05bdf70c6ULL, 0x015ceddf3bcfae73ULL},
    {"sharded_rebalance", sharded_rebalance, 0xe14f4475ecbdcc67ULL,
     0xf41c9ce7e5f5c28bULL, 0xd2d060c4b40695a5ULL},
}};

FarmResult run(const Pinned& p, int workers) {
  auto [sc, cfg] = p.make();
  cfg.workers = workers;
  cfg.trace = true;
  return run_farm(sc, cfg);
}

TEST(SinkBytes, DigestsArePinnedAtOneAndFourWorkers) {
  for (const Pinned& p : kPinned) {
    for (const int workers : {1, 4}) {
      const FarmResult r = run(p, workers);
      ASSERT_EQ(r.trace_dropped, 0) << p.name;
      EXPECT_EQ(fnv1a(r.metrics.to_json()), p.metrics)
          << p.name << " metrics, workers=" << workers << std::hex
          << " got 0x" << fnv1a(r.metrics.to_json());
      EXPECT_EQ(fnv1a(r.series.to_json()), p.series)
          << p.name << " series, workers=" << workers << std::hex
          << " got 0x" << fnv1a(r.series.to_json());
      const std::string chrome = obs::export_chrome_trace(
          r.trace, static_cast<int>(r.processors.size()));
      EXPECT_EQ(fnv1a(chrome), p.trace)
          << p.name << " trace, workers=" << workers << std::hex
          << " got 0x" << fnv1a(chrome);
    }
  }
}

struct PinnedReports {
  std::uint64_t json;
  std::uint64_t csv;
};

/// to_json / to_csv digests, in kPinned order.  sharded_rebalance's
/// pair was re-recorded when frames concealed before any picture was
/// displayed started scoring 0, and split_limited_mix's JSON when the
/// tail processor's peak started counting its split tail.  Every pair
/// (and every metrics digest above) was re-recorded when the
/// always-zero admission_check_points counter left the registry.
const std::array<PinnedReports, 3> kPinnedReports = {{
    {0x3307775ca5c7bf75ULL, 0xcb9b047fc82d1abfULL},
    {0x9e533fdc5a439661ULL, 0x092078ddc31d941eULL},
    {0x41453014bd56a689ULL, 0x54d000a64f80bdcaULL},
}};

TEST(SinkBytes, ReportDigestsArePinnedAtOneAndFourWorkers) {
  for (std::size_t i = 0; i < kPinned.size(); ++i) {
    const Pinned& p = kPinned[i];
    for (const int workers : {1, 4}) {
      const FarmResult r = run(p, workers);
      const std::string json = to_json(r);
      const std::string csv = to_csv(r);
      EXPECT_EQ(report_digest(json), kPinnedReports[i].json)
          << p.name << " to_json, workers=" << workers << std::hex
          << " got 0x" << report_digest(json);
      EXPECT_EQ(fnv1a(csv), kPinnedReports[i].csv)
          << p.name << " to_csv, workers=" << workers << std::hex
          << " got 0x" << fnv1a(csv);
    }
  }
  // The SLO sections the pin covers: every objective evaluated, and at
  // least one burn-rate alert raised.
  const FarmResult r = run(kPinned[0], 1);
  ASSERT_EQ(r.slo.objectives.size(), 5u);
  std::size_t alerts = 0;
  for (const obs::SloOutcome& o : r.slo.objectives) alerts += o.alerts.size();
  EXPECT_GT(alerts, 0u);
  EXPECT_NE(to_json(r).find("\"timeseries\""), std::string::npos);
}

// The pinned runs' JSON report and Chrome trace are documents
// util::parse_json accepts (qosreport reads the former back), and they
// carry what the run recorded.
TEST(SinkBytes, ReportsParseBack) {
  for (const Pinned& p : kPinned) {
    const FarmResult r = run(p, 1);
    util::JsonValue doc;
    std::string error;
    ASSERT_TRUE(util::parse_json(to_json(r), &doc, &error))
        << p.name << ": " << error;
    const util::JsonValue* streams =
        doc.find("streams", util::JsonKind::kArray);
    ASSERT_NE(streams, nullptr) << p.name;
    EXPECT_EQ(streams->items().size(), r.streams.size()) << p.name;
    const util::JsonValue* trace_events =
        doc.find("trace_events", util::JsonKind::kNumber);
    ASSERT_NE(trace_events, nullptr) << p.name;
    EXPECT_EQ(trace_events->as_int(), static_cast<long long>(r.trace.size()))
        << p.name;
    EXPECT_EQ(doc.find("slo") != nullptr, !r.slo.objectives.empty())
        << p.name;

    const int procs = static_cast<int>(r.processors.size());
    ASSERT_TRUE(util::parse_json(obs::export_chrome_trace(r.trace, procs),
                                 &doc, &error))
        << p.name << ": " << error;
    const util::JsonValue* events =
        doc.find("traceEvents", util::JsonKind::kArray);
    ASSERT_NE(events, nullptr) << p.name;
    // One thread-name row per processor and the control plane, then
    // one entry per recorded event.
    EXPECT_EQ(events->items().size(), r.trace.size() + procs + 1) << p.name;
  }
}

// The pin covers every recording path: each event kind the simulator
// emits occurs in at least one pinned run.  The exception is
// kDeadlineMiss: admission guarantees that no admitted frame misses its
// display deadline (the paper's Prop. 2.1), and the faults never break
// that, so no admitted workload emits one.  The agreement test below
// still checks that all three channels report the same zero misses.
TEST(SinkBytes, PinnedRunsEmitEveryEventKind) {
  std::set<int> seen;
  for (const Pinned& p : kPinned) {
    for (const obs::TraceEvent& e : run(p, 1).trace) seen.insert(e.kind);
  }
  for (int k = static_cast<int>(obs::EventKind::kDispatch);
       k <= static_cast<int>(obs::EventKind::kSloAlert); ++k) {
    if (k == static_cast<int>(obs::EventKind::kDeadlineMiss)) continue;
    EXPECT_TRUE(seen.count(k)) << "event kind " << k << " never emitted";
  }
}

long long counter(const FarmResult& r, const char* name) {
  const auto it = r.metrics.counters().find(name);
  return it == r.metrics.counters().end() ? 0 : it->second;
}

long long track_count(const FarmResult& r, const std::string& name) {
  const auto it = r.series.tracks.find(name);
  if (it == r.series.tracks.end()) return 0;
  long long n = 0;
  for (const auto& [w, h] : it->second) n += h.count();
  return n;
}

/// Fleet track count, checked against the sum of its `@class` variants.
long long fleet_track_count(const FarmResult& r, const std::string& name) {
  const long long fleet = track_count(r, name);
  EXPECT_EQ(track_count(r, name + "@controlled") +
                track_count(r, name + "@constant") +
                track_count(r, name + "@feedback"),
            fleet)
      << name;
  return fleet;
}

// ROADMAP "explainable decisions" (c): the three channels agree.  A C=D
// split frame is served twice — a head piece, then a relay on the tail
// processor — and the trace shows both: the relay's kDispatch (the
// head's dispatch is the one the counter takes) and the head's
// kComplete (the relay's completion is the one the counter takes).
TEST(SinkChannels, MetricsSeriesAndTraceAgree) {
  for (const Pinned& p : kPinned) {
    const FarmResult r = run(p, 2);
    ASSERT_EQ(r.trace_dropped, 0) << p.name;
    std::set<std::pair<int, int>> heads, tails;  // (stream id, cpu)
    for (const StreamOutcome& so : r.streams) {
      std::vector<const Placement*> pls{&so.placement};
      for (const FailoverSegment& seg : so.failover) {
        pls.push_back(&seg.placement);
      }
      for (const Placement* pl : pls) {
        if (!pl->admitted || !pl->split) continue;
        heads.insert({so.spec.id, pl->processor});
        tails.insert({so.spec.id, pl->tail_processor});
      }
    }
    std::map<obs::EventKind, long long> n;
    long long relay_dispatches = 0, head_handoffs = 0, concealed_completes = 0;
    for (const obs::TraceEvent& e : r.trace) {
      const auto kind = static_cast<obs::EventKind>(e.kind);
      ++n[kind];
      const std::pair<int, int> at{e.stream, e.cpu};
      if (kind == obs::EventKind::kDispatch && tails.count(at)) {
        ++relay_dispatches;
      }
      if (kind != obs::EventKind::kComplete) continue;
      if (e.aux != static_cast<std::uint32_t>(
                       obs::CompleteOutcome::kDelivered)) {
        ++concealed_completes;
      } else if (heads.count(at)) {
        ++head_handoffs;
      }
    }
    if (std::string(p.name) == "split_limited_mix") {
      EXPECT_GT(relay_dispatches, 0);
      EXPECT_EQ(relay_dispatches, head_handoffs);
    }

    const long long completed = counter(r, "frames_completed");
    const long long misses = counter(r, "display_misses");
    const long long concealed = counter(r, "frames_concealed");
    EXPECT_GT(completed, 0) << p.name;
    EXPECT_EQ(counter(r, "frames_dispatched"),
              n[obs::EventKind::kDispatch] - relay_dispatches)
        << p.name;
    EXPECT_EQ(completed, n[obs::EventKind::kComplete] - head_handoffs)
        << p.name;
    EXPECT_EQ(misses, n[obs::EventKind::kDeadlineMiss]) << p.name;
    EXPECT_EQ(concealed, n[obs::EventKind::kConceal] +
                             n[obs::EventKind::kConcealService] +
                             concealed_completes)
        << p.name;
    EXPECT_EQ(counter(r, "preemptions"), n[obs::EventKind::kPreempt])
        << p.name;

    EXPECT_EQ(fleet_track_count(r, "frames_completed"), completed) << p.name;
    EXPECT_EQ(fleet_track_count(r, "display_misses"), misses) << p.name;
    EXPECT_EQ(fleet_track_count(r, "frames_concealed"), concealed) << p.name;
    EXPECT_EQ(fleet_track_count(r, "frame_latency_cycles"), completed)
        << p.name;
  }
}

// The one event no pinned run emits, checked at the probe itself: a
// display miss reaches the counter, the fleet and class series, and
// the trace.
TEST(SinkChannels, ProbeRecordsAMissInEverySink) {
  obs::Registry metrics;
  obs::TraceBuffer trace(0, 16);
  obs::SeriesRecorder series(1000);
  Probe probe(0, metrics, &trace, &series);
  probe.on_miss(2500, pipe::ControlMode::kConstantQuality, 7, 3, 40);
  EXPECT_EQ(metrics.counters().at("display_misses"), 1);
  EXPECT_EQ(series.tracks().at("display_misses").at(2).count(), 1);
  EXPECT_EQ(series.tracks().at("display_misses@constant").at(2).sum(), 40);
  EXPECT_TRUE(series.tracks().at("display_misses@controlled").empty());
  std::vector<obs::TraceEvent> events;
  trace.drain_to(&events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind,
            static_cast<std::uint16_t>(obs::EventKind::kDeadlineMiss));
  EXPECT_EQ(events[0].stream, 7);
  EXPECT_EQ(events[0].frame, 3);
  EXPECT_EQ(events[0].arg, 40);

  // Without a trace buffer or series recorder only the registry hears.
  obs::Registry bare;
  Probe off(0, bare, nullptr, nullptr);
  off.on_miss(2500, pipe::ControlMode::kControlled, 7, 3, 40);
  EXPECT_EQ(bare.counters().at("display_misses"), 1);
}

}  // namespace
}  // namespace qosctrl::farm
