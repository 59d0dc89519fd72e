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
//    counts and the trace event counts describe the same frames, the
//    CSV's stream table holds the JSON report's stream keys and values,
//    and every row of the text summary holds one JSON object's members.
#include <gtest/gtest.h>

#include <algorithm>
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
/// always-zero admission_check_points counter left the registry.  The
/// CSV digests were re-recorded when the stream table took the JSON's
/// key order and gained tail_processor (same cells otherwise), and
/// faulted_preemptive's again when its SLO block took the JSON's
/// objective members (obs::slo_columns) and their number forms.
const std::array<PinnedReports, 3> kPinnedReports = {{
    {0x3307775ca5c7bf75ULL, 0x828208ebafb07cb6ULL},
    {0x9e533fdc5a439661ULL, 0x663880b441db951cULL},
    {0x41453014bd56a689ULL, 0x1b435f4987daf10bULL},
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

/// The cells of one CSV line (no report cell holds a comma).
std::vector<std::string> csv_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t from = 0;
  for (std::size_t at; (at = line.find(',', from)) != std::string::npos;
       from = at + 1) {
    cells.push_back(line.substr(from, at - from));
  }
  cells.push_back(line.substr(from));
  return cells;
}

/// A JSON value as the CSV writes it: text verbatim, booleans as 0/1,
/// numbers at round-trip precision (so equal cells parse back equal).
bool cell_matches(const std::string& cell, const util::JsonValue& v) {
  switch (v.kind()) {
    case util::JsonKind::kBool:
      return cell == (v.as_bool() ? "1" : "0");
    case util::JsonKind::kNumber:
      return !cell.empty() && std::stod(cell) == v.as_number();
    case util::JsonKind::kString:
      return cell == v.as_string();
    default:
      return false;
  }
}

// The stream table is one list written twice.  The CSV header is an
// admitted stream's JSON keys in order, less the nested phase_cycles
// object; every admitted row holds that stream's JSON values; a
// rejected row holds the outcome of a stream that never ran
// (processors -1, everything else 0); and a rejected stream's JSON
// object holds the request columns and its reason, nothing else.  The
// scenarios cover a split stream (tail_processor 1), failovers and
// faults, and rejections.
TEST(StreamReport, CsvColumnsAreTheJsonStreamKeys) {
  const std::vector<FarmResult> runs = {
      run(kPinned[0], 1), run(kPinned[1], 1),
      run_farm(split_limited_mix(), two_proc_config())};
  int admitted = 0, rejected = 0, tails = 0;
  for (const FarmResult& r : runs) {
    util::JsonValue doc;
    std::string error;
    ASSERT_TRUE(util::parse_json(to_json(r), &doc, &error)) << error;
    const std::vector<util::JsonValue>& streams =
        doc.find("streams", util::JsonKind::kArray)->items();
    // The stream table ends at the blank line before the metrics table.
    const std::string csv = to_csv(r);
    const std::size_t table_end = csv.find("\n\n");
    ASSERT_NE(table_end, std::string::npos);
    std::vector<std::vector<std::string>> lines;
    for (std::size_t from = 0; from <= table_end;) {
      const std::size_t at = csv.find('\n', from);
      lines.push_back(csv_cells(csv.substr(from, at - from)));
      from = at + 1;
    }
    const std::vector<std::string>& header = lines.front();
    ASSERT_EQ(lines.size(), streams.size() + 1);
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const auto& members = streams[i].members();
      const std::vector<std::string>& row = lines[i + 1];
      ASSERT_EQ(row.size(), header.size());
      if (!r.streams[i].placement.admitted) {
        ++rejected;
        ASSERT_EQ(members.back().first, "reason");
        const std::size_t request = members.size() - 1;
        ASSERT_EQ(header.at(request - 1), "admitted");
        for (std::size_t c = 0; c < header.size(); ++c) {
          if (c < request) {
            EXPECT_EQ(members[c].first, header[c]);
            EXPECT_TRUE(cell_matches(row[c], members[c].second))
                << header[c] << "=" << row[c];
          } else {
            const bool proc =
                header[c] == "processor" || header[c] == "tail_processor";
            EXPECT_EQ(row[c], proc ? "-1" : "0") << header[c];
          }
        }
        continue;
      }
      ++admitted;
      if (r.streams[i].placement.tail_processor >= 0) ++tails;
      std::vector<std::string> keys;
      for (const auto& [key, value] : members) keys.push_back(key);
      ASSERT_EQ(keys.back(), "phase_cycles");
      keys.pop_back();
      ASSERT_EQ(keys, header);
      for (std::size_t c = 0; c < header.size(); ++c) {
        EXPECT_TRUE(cell_matches(row[c], members[c].second))
            << "stream " << i << " " << header[c] << "=" << row[c];
      }
    }
  }
  EXPECT_GT(admitted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(tails, 0);
}

/// `qosfarm run --procs 4 --streams 16 --split --seed 24 --policy
/// preemptive --constant-frac 0.5 --period-factors 2,3,4 --shards 2
/// --faults overrun,loss --fail 3@40000000 --fail 1@20000000+10000000
/// --ts-window 4000000 --trace x`: faulted and sharded, with a split
/// stream, rejections, one permanent and one transient failure.
FarmResult faulted_sharded_split() {
  LoadGenConfig load;
  load.num_streams = 16;
  load.constant_mode_fraction = 0.5;
  load.period_factors = {2.0, 3.0, 4.0};
  load.seed = 24;
  FarmScenario sc = generate_scenario(load);
  sc.sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
  sc.sched.policy.context_switch_cost = platform::kContextSwitchCycles;
  sc.sched.policy.quantum = 1000000;
  sc.sched.split = true;
  sc.faults.overrun.probability = 0.2;
  sc.faults.overrun.factor = 3.0;
  sc.faults.loss.probability = 0.1;
  sc.faults.failures.push_back({3, 40000000, 0});
  sc.faults.failures.push_back({1, 20000000, 10000000});
  FarmConfig cfg;
  cfg.num_processors = 4;
  cfg.shards = 2;
  cfg.seed = 24 * 0x9e3779b9ULL + 1;
  cfg.ts_window = 4000000;
  cfg.trace = true;
  return run_farm(sc, cfg);
}

/// An object's members less its nested objects and arrays of objects:
/// what a text row can hold.
Pairs flat_members(const util::JsonValue& object) {
  Pairs flat;
  for (const auto& [name, value] : object.members()) {
    const bool nested =
        value.is_object() ||
        (value.is_array() &&
         std::any_of(value.items().begin(), value.items().end(),
                     [](const util::JsonValue& v) { return v.is_object(); }));
    if (!nested) flat.emplace_back(name, value);
  }
  return flat;
}

bool same_value(const util::JsonValue& a, const util::JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case util::JsonKind::kBool:
      return a.as_bool() == b.as_bool();
    case util::JsonKind::kNumber:
      return a.as_number() == b.as_number();
    case util::JsonKind::kString:
      return a.as_string() == b.as_string();
    case util::JsonKind::kArray:
      return std::equal(a.items().begin(), a.items().end(),
                        b.items().begin(), b.items().end(), same_value);
    default:
      return a.is_null();
  }
}

void expect_same_pairs(const Pairs& row, const Pairs& json,
                       const std::string& label) {
  ASSERT_EQ(row.size(), json.size()) << label;
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(row[i].first, json[i].first) << label;
    EXPECT_TRUE(same_value(row[i].second, json[i].second))
        << label << " " << row[i].first;
  }
}

// The text summary is the JSON's tables written as text: each row of a
// report table is one "<label>: name=value ..." line whose pairs are
// that JSON object's members in order (nested objects aside), each
// value in the JSON's own text.  The fleet object is three rows (fleet,
// fault totals, quality), so the fault totals can stay out of runs
// without faults.  Every labelled row is checked; the windowed series
// and SLO lines are not tables of the JSON.
TEST(FarmReport, SummaryRowsAreTheJsonTables) {
  const FarmResult r = faulted_sharded_split();
  ASSERT_GT(r.split_streams, 0);
  ASSERT_GT(r.rejected, 0);
  ASSERT_EQ(r.failures.size(), 2u);
  ASSERT_EQ(r.shards, 2);
  util::JsonValue doc;
  std::string error;
  ASSERT_TRUE(util::parse_json(to_json(r), &doc, &error)) << error;

  // Rows by label; the first line is the build provenance.
  const std::string summary = summarize(r);
  std::map<std::string, Pairs> rows;
  std::string first_line;
  for (std::size_t from = 0; from < summary.size();) {
    const std::size_t at = summary.find('\n', from);
    ASSERT_NE(at, std::string::npos) << "summary ends without a newline";
    const std::string line = summary.substr(from, at - from);
    from = at + 1;
    if (first_line.empty()) {
      first_line = line;
    } else if (line.rfind("series ", 0) != 0 && line.rfind("slo ", 0) != 0) {
      const std::size_t colon = line.find(':');
      ASSERT_NE(colon, std::string::npos) << line;
      EXPECT_TRUE(
          rows.emplace(line.substr(0, colon), row_pairs(line.substr(colon + 1)))
              .second)
          << "two rows labelled " << line.substr(0, colon);
    }
  }
  std::set<std::string> checked;
  const auto expect_row = [&](const std::string& label, const Pairs& json) {
    ASSERT_TRUE(rows.count(label)) << "no row " << label;
    checked.insert(label);
    expect_same_pairs(rows.at(label), json, label);
  };

  const Pairs build = flat_members(*doc.find("build"));
  expect_same_pairs(row_pairs(first_line.substr(first_line.find(" farm_seed="))),
                    Pairs(build.end() - 2, build.end()), "build");
  Pairs fleet = rows["fleet"];
  for (const char* part : {"fault totals", "quality"}) {
    fleet.insert(fleet.end(), rows[part].begin(), rows[part].end());
    checked.insert(part);
  }
  rows["fleet"] = fleet;
  expect_row("fleet", flat_members(*doc.find("fleet")));
  expect_row("faults", flat_members(*doc.find("faults")));
  const auto indexed = [&](const char* array, const std::string& label,
                           const util::JsonValue& parent) {
    const auto& items = parent.find(array)->items();
    for (std::size_t i = 0; i < items.size(); ++i) {
      expect_row(label + " " + std::to_string(i), flat_members(items[i]));
    }
  };
  indexed("failures", "failure", doc);
  indexed("processors", "proc", doc);
  for (const util::JsonValue& stream : doc.find("streams")->items()) {
    expect_row("stream " + std::to_string(stream.find("id")->as_int()),
               flat_members(stream));
  }
  expect_row("shards", flat_members(*doc.find("shards")));
  indexed("per_shard", "shard", *doc.find("shards"));
  const util::JsonValue& metrics = *doc.find("metrics");
  for (const auto& [name, h] : metrics.find("histograms")->members()) {
    expect_row("metric " + name, flat_members(h));
  }
  expect_row("counters", flat_members(*metrics.find("counters")));
  expect_row("timeseries", flat_members(*doc.find("timeseries")));
  Pairs trace;
  for (const char* name :
       {"trace_events", "trace_dropped", "trace_dropped_per_buffer"}) {
    trace.emplace_back(name, *doc.find(name));
  }
  expect_row("trace", trace);

  // Every row was one of the JSON's tables, and the run had what the
  // test is about: a split stream and a rejected one among the rows.
  for (const auto& [label, pairs] : rows) {
    EXPECT_TRUE(checked.count(label)) << "row " << label << " has no table";
  }
  int split = 0, rejected = 0;
  for (const util::JsonValue& stream : doc.find("streams")->items()) {
    const util::JsonValue* s = stream.find("split");
    split += s != nullptr && s->as_bool();
    rejected += stream.find("reason") != nullptr;
  }
  EXPECT_GT(split, 0);
  EXPECT_GT(rejected, 0);
}

// The SLO table is one column list (obs::slo_columns) written three
// ways: each objective's JSON members, the CSV block's header and each
// "slo <spec>:" text row name the same columns in the same order, the
// alerts last (an array in the JSON, its count in the CSV and the
// text).  The text rows hold the JSON's values too.
TEST(FarmReport, SloRowsAreOneColumnList) {
  const FarmResult r = run(kPinned[0], 1);
  util::JsonValue doc;
  std::string error;
  ASSERT_TRUE(util::parse_json(to_json(r), &doc, &error)) << error;
  const auto& objectives = doc.find("slo")->find("objectives")->items();
  ASSERT_EQ(objectives.size(), r.slo.objectives.size());
  std::vector<std::string> names;
  for (const auto& [name, value] : objectives[0].members()) {
    names.push_back(name);
  }
  ASSERT_EQ(names.back(), "alerts");

  // The CSV's SLO block is its last blank-line-separated table.
  const std::string csv = to_csv(r);
  EXPECT_EQ(csv_names(csv, csv.rfind("\n\n") + 2), names);

  const std::string summary = summarize(r);
  std::size_t rows = 0;
  for (std::size_t at = summary.find("\nslo "); at != std::string::npos;
       at = summary.find("\nslo ", at + 1), ++rows) {
    ASSERT_LT(rows, objectives.size());
    const util::JsonValue& json = objectives[rows];
    const std::string label = "slo " + json.find("spec")->as_string() + ":";
    ASSERT_EQ(summary.compare(at + 1, label.size(), label), 0);
    const std::size_t from = at + 1 + label.size();
    const Pairs pairs =
        row_pairs(summary.substr(from, summary.find('\n', from) - from));
    ASSERT_EQ(pairs.size(), names.size()) << label;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(pairs[i].first, names[i]) << label;
    }
    Pairs members = json.members();
    members.back().second = util::JsonValue::make_number(
        static_cast<double>(json.find("alerts")->items().size()));
    expect_same_pairs(pairs, members, label);
  }
  EXPECT_EQ(rows, objectives.size());
}

// Seeds are unsigned 64-bit: one past 2^63 reaches the reports whole,
// not wrapped negative.
TEST(FarmReport, SeedsAboveTwoToThe63AreWrittenUnsigned) {
  FarmScenario sc = split_limited_mix();
  sc.faults.seed = 0xFFFFFFFFFFFFFFFFULL;
  FarmConfig cfg = two_proc_config();
  cfg.seed = 4000000000ULL * 0x9e3779b9ULL + 1;  // qosfarm --seed 4000000000
  ASSERT_GE(cfg.seed, 1ULL << 63);
  const FarmResult r = run_farm(sc, cfg);
  EXPECT_NE(to_json(r).find("\"farm_seed\":10617743076000000001,"
                            "\"fault_seed\":18446744073709551615}"),
            std::string::npos);
  EXPECT_NE(summarize(r).find(" farm_seed=10617743076000000001 "
                              "fault_seed=18446744073709551615\n"),
            std::string::npos);
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
  obs::TimeSeries series{.window = 1000, .tracks = {}};
  Probe probe(0, metrics, &trace, &series);
  probe.on_miss(2500, pipe::ControlMode::kConstantQuality, 7, 3, 40);
  EXPECT_EQ(metrics.counters().at("display_misses"), 1);
  EXPECT_EQ(series.tracks.at("display_misses").at(2).count(), 1);
  EXPECT_EQ(series.tracks.at("display_misses@constant").at(2).sum(), 40);
  EXPECT_TRUE(series.tracks.at("display_misses@controlled").empty());
  std::vector<obs::TraceEvent> events;
  trace.drain_to(&events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind,
            static_cast<std::uint16_t>(obs::EventKind::kDeadlineMiss));
  EXPECT_EQ(events[0].stream, 7);
  EXPECT_EQ(events[0].frame, 3);
  EXPECT_EQ(events[0].arg, 40);

  // Without a trace buffer or time series only the registry hears.
  obs::Registry bare;
  Probe off(0, bare, nullptr, nullptr);
  off.on_miss(2500, pipe::ControlMode::kControlled, 7, 3, 40);
  EXPECT_EQ(bare.counters().at("display_misses"), 1);
}

}  // namespace
}  // namespace qosctrl::farm
