// qoseval — quality-vs-deadline policy evaluation harness.
//
// Runs the same generated offered loads under every combination of
// quality policy (table-driven controller vs fixed-quality baseline),
// scheduling policy (np / preemptive / quantum EDF), and budget
// renegotiation (off / on, the restore pass included), then ranks the
// combinations on the quality / miss frontier (see
// src/quality/qoseval.h for the scoring).
//
//   qoseval sweep [flags]
//
// The flags are declared once, in the table in main; docs/cli.md
// documents each one.  Exit codes: 2 usage, 1 I/O.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_util.h"
#include "farm/faults.h"
#include "farm/presets.h"
#include "quality/qoseval.h"

namespace {

using namespace qosctrl;
constexpr const char* kTool = "qoseval";

/// An axis flag: "off", "on" or "both".
bool parse_axis(const char* v, std::vector<bool>* out) {
  if (std::strcmp(v, "off") == 0) {
    *out = {false};
  } else if (std::strcmp(v, "on") == 0) {
    *out = {true};
  } else if (std::strcmp(v, "both") == 0) {
    *out = {false, true};
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  quality::SweepConfig sweep;
  int streams = 8;
  int min_frames = 4, max_frames = 8;
  std::vector<std::uint64_t> scenario_seeds = {7, 11, 19};
  bool scenario_seeds_given = false;
  bool streams_given = false;
  std::vector<farm::PresetKind> presets;
  std::vector<sched::PolicyKind> kinds = {sched::PolicyKind::kNonPreemptiveEdf,
                                          sched::PolicyKind::kPreemptiveEdf,
                                          sched::PolicyKind::kQuantumEdf};
  rt::Cycles quantum = 1000000;
  rt::Cycles ctx_switch = platform::kContextSwitchCycles;
  const char* csv_path = nullptr;
  bool quiet = false;
  int constant_q = 3;
  // Defaults for faulted cells; inert while the axis stays {false}.
  sweep.faults.overrun.probability = 0.2;
  sweep.faults.loss.probability = 0.1;
  // An out-of-range baseline level is rejected loudly: admission would
  // reject every constant-policy stream and the sweep would silently
  // rank the controller against a vacuous baseline.
  const int num_levels =
      static_cast<int>(platform::figure5_quality_levels().size());

  const cli::CommandLine cl{kTool, "sweep", {
      cli::integer("--procs", "N", &sweep.num_processors, 1),
      cli::integer("--workers", "N", &sweep.workers, 1),
      cli::given(cli::integer("--streams", "N", &streams, 1),
                 &streams_given),
      cli::int_range("--frames", "LO[:HI]", &min_frames, &max_frames, 1),
      cli::given(cli::list("--scenario-seeds", "A,B,...", &scenario_seeds,
                           cli::parse_u64),
                 &scenario_seeds_given),
      cli::list("--preset", "A,B,...", &presets, farm::parse_preset_name),
      cli::integer("--shards", "S", &sweep.shards, 1),
      cli::integer("--constant-q", "L", &constant_q, 0, num_levels - 1),
      cli::list("--policies", "A,B,...", &kinds, sched::parse_policy_name),
      cli::cycles("--quantum", "C", &quantum, 1),
      cli::cycles("--ctx-switch", "C", &ctx_switch, 0,
                  platform::kMaxOverheadCycles),
      {"--reneg", "off|on|both",
       [&](const char* v) { return parse_axis(v, &sweep.renegotiate); }},
      {"--faults", "off|on|both",
       [&](const char* v) { return parse_axis(v, &sweep.fault_axis); }},
      cli::fraction("--overrun-prob", "F", &sweep.faults.overrun.probability),
      cli::named("--overrun-policy", "P", &sweep.faults.overrun.policy,
                 farm::parse_overrun_policy),
      cli::fraction("--loss-prob", "F", &sweep.faults.loss.probability),
      cli::u64("--fault-seed", "S", &sweep.faults.seed),
      cli::fraction("--latency-discount", "F", &sweep.latency_discount),
      cli::enable("--split", &sweep.split),
      cli::u64("--seed", "S", &sweep.farm_seed),
      cli::cycles("--ts-window", "W", &sweep.ts_window, 1),
      cli::slo(kTool, &sweep.slos),
      cli::text("--csv", "PATH", &csv_path),
      cli::enable("--quiet", &quiet),
  }};
  if (const int rc = cl.parse(argc, argv); rc >= 0) return rc;
  if (!cli::shards_fit(kTool, sweep.shards, sweep.num_processors) ||
      !cli::slos_have_window(kTool, sweep.slos, sweep.ts_window)) {
    return cl.usage_error();
  }
  sweep.constant_quality = static_cast<rt::QualityLevel>(constant_q);

  // Scenario axis: presets replace the default seed scenarios; an
  // explicit --scenario-seeds keeps both on the axis.
  if (presets.empty() || scenario_seeds_given) {
    for (const std::uint64_t s : scenario_seeds) {
      farm::LoadGenConfig lg;
      lg.num_streams = streams;
      lg.min_frames = min_frames;
      lg.max_frames = max_frames;
      lg.seed = s;
      sweep.scenarios.push_back(lg);
      sweep.scenario_names.push_back("seed" + std::to_string(s));
    }
  }
  for (const farm::PresetKind k : presets) {
    farm::PresetParams pp;
    if (streams_given) pp.num_streams = streams;
    sweep.preset_scenarios.push_back(farm::compile_preset(k, pp));
    sweep.scenario_names.push_back(farm::preset_name(k));
  }
  for (const sched::PolicyKind k : kinds) {
    sched::PolicyParams p;
    p.kind = k;
    p.context_switch_cost = ctx_switch;
    p.quantum = quantum;
    sweep.sched_policies.push_back(p);
  }

  const quality::SweepResult result = quality::run_sweep(sweep);
  if (!quiet) std::fputs(quality::summarize(result).c_str(), stdout);
  if (csv_path &&
      !cli::write_file(kTool, csv_path, quality::to_csv(result))) {
    return 1;
  }
  return 0;
}
