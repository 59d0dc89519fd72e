// qoseval — quality-vs-deadline policy evaluation harness.
//
// Runs the same generated offered loads under every combination of
// quality policy (table-driven controller vs fixed-quality baseline),
// scheduling policy (np / preemptive / quantum EDF), and budget
// renegotiation (off / on, the restore pass included), then ranks the
// combinations on the quality / miss frontier (see
// src/quality/qoseval.h for the scoring).
//
// Usage:
//   qoseval sweep [options]
//
// Options (key value pairs):
//   --procs N            virtual processors per farm (default 2)
//   --workers N          host threads over grid cells (default 1;
//                        any value gives bit-identical results)
//   --streams N          offered streams per scenario (default 8)
//   --frames LO[:HI]     stream lifetime range in frames (default 4:8)
//   --scenario-seeds A,B,...  load-generator seeds, one scenario each
//                        (default 7,11,19)
//   --preset A,B,...     scenario presets on the scenario axis (subset
//                        of diurnal,flash-crowd,churn-heavy,
//                        mixed-geometry); replaces the default seed
//                        scenarios unless --scenario-seeds is also
//                        given explicitly
//   --shards S           admission shards per cell farm (default 1)
//   --constant-q L       the fixed-quality baseline's level (default 3)
//   --policies A,B,...   scheduling policies to sweep (subset of
//                        np,preemptive,quantum; default all three)
//   --quantum C          quantum for the quantum policy (default 1000000)
//   --ctx-switch C       context-switch cost in cycles
//                        (default platform::kContextSwitchCycles)
//   --reneg off|on|both  renegotiation axis (default both)
//   --faults off|on|both fault axis: replay each cell under an injected
//                        fault scenario (default off)
//   --overrun-prob F     faulted cells' WCET-overrun probability
//                        (default 0.2)
//   --overrun-policy P   abort|downgrade|quarantine (default abort)
//   --loss-prob F        faulted cells' frame-loss probability
//                        (default 0.1)
//   --fault-seed S       root of the fault draws (default: from the
//                        farm seed)
//   --latency-discount F weight of the start-lag-p95 tail discount in
//                        the fused score (default 0.25)
//   --admission A        demand-scan algorithm for admission tests:
//                        exact (full check-point scan) or qpa
//                        (decision-identical fast path; default)
//   --split              enable C=D semi-partitioned splitting in
//                        every cell (docs/admission.md)
//   --ts-window W        windowed time-series width in cycles for every
//                        cell farm (docs/timeseries-slo.md)
//   --slo SPEC           objective evaluated per cell (repeatable); the
//                        verdicts land in the CSV's slo_* columns
//   --seed S             farm seed shared by every cell (default 2026)
//   --csv PATH           write the per-cell CSV
//   --quiet              suppress the human-readable report
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_util.h"
#include "farm/faults.h"
#include "farm/presets.h"
#include "obs/buildinfo.h"
#include "obs/slo.h"
#include "quality/qoseval.h"

namespace {

using namespace qosctrl;
using cli::parse_int;
using cli::parse_int_range;
using cli::parse_positive_cycles;
using cli::parse_u64;
using cli::split_commas;

const char kUsage[] =
    "usage: qoseval sweep [--procs N] [--workers N] [--streams N]\n"
    "                     [--frames LO[:HI]] [--scenario-seeds A,B,...]\n"
    "                     [--preset diurnal,flash-crowd,churn-heavy,"
    "mixed-geometry]\n"
    "                     [--shards S]\n"
    "                     [--constant-q L] [--policies np,preemptive,"
    "quantum]\n"
    "                     [--quantum C] [--ctx-switch C]\n"
    "                     [--reneg off|on|both] [--faults off|on|both]\n"
    "                     [--overrun-prob F]\n"
    "                     [--overrun-policy abort|downgrade|quarantine]\n"
    "                     [--loss-prob F] [--fault-seed S]\n"
    "                     [--latency-discount F]\n"
    "                     [--admission exact|qpa] [--split]\n"
    "                     [--ts-window W] [--slo SPEC]\n"
    "                     [--seed S] [--csv PATH] [--quiet]\n"
    "       qoseval --help | --version\n";

int usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

bool parse_u64_list(const char* s, std::vector<std::uint64_t>* out) {
  out->clear();
  for (const std::string& item : split_commas(s)) {
    std::uint64_t v = 0;
    if (!parse_u64(item.c_str(), &v)) return false;
    out->push_back(v);
  }
  return !out->empty();
}

bool parse_preset_list(const char* s, std::vector<farm::PresetKind>* out) {
  out->clear();
  for (const std::string& item : split_commas(s)) {
    farm::PresetKind kind;
    if (!farm::parse_preset_name(item.c_str(), &kind)) return false;
    out->push_back(kind);
  }
  return !out->empty();
}

bool parse_policy_list(const char* s, std::vector<sched::PolicyKind>* out) {
  out->clear();
  for (const std::string& item : split_commas(s)) {
    sched::PolicyKind kind;
    if (!sched::parse_policy_name(item.c_str(), &kind)) return false;
    out->push_back(kind);
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", obs::version_line("qoseval").c_str());
    return 0;
  }
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0)) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (argc < 2 || std::strcmp(argv[1], "sweep") != 0) return usage();

  quality::SweepConfig sweep;
  int streams = 8;
  int min_frames = 4, max_frames = 8;
  std::vector<std::uint64_t> scenario_seeds = {7, 11, 19};
  bool scenario_seeds_set = false;
  bool streams_set = false;
  std::vector<farm::PresetKind> presets;
  std::vector<sched::PolicyKind> kinds = {sched::PolicyKind::kNonPreemptiveEdf,
                                          sched::PolicyKind::kPreemptiveEdf,
                                          sched::PolicyKind::kQuantumEdf};
  rt::Cycles quantum = 1000000;
  rt::Cycles ctx_switch = platform::kContextSwitchCycles;
  sched::DemandAlgo admission = sched::DemandAlgo::kQpa;
  const char* csv_path = nullptr;
  bool quiet = false;
  int constant_q = 3;
  // Defaults for faulted cells; inert while the axis stays {false}.
  sweep.faults.overrun.probability = 0.2;
  sweep.faults.loss.probability = 0.1;

  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--procs") == 0) {
      const char* v = value();
      if (!v || !parse_int(v, &sweep.num_processors)) return usage();
    } else if (std::strcmp(arg, "--workers") == 0) {
      const char* v = value();
      if (!v || !parse_int(v, &sweep.workers)) return usage();
    } else if (std::strcmp(arg, "--streams") == 0) {
      const char* v = value();
      if (!v || !parse_int(v, &streams)) return usage();
      streams_set = true;
    } else if (std::strcmp(arg, "--preset") == 0) {
      const char* v = value();
      if (!v || !parse_preset_list(v, &presets)) return usage();
    } else if (std::strcmp(arg, "--shards") == 0) {
      const char* v = value();
      if (!v || !parse_int(v, &sweep.shards) || sweep.shards < 1) {
        return usage();
      }
    } else if (std::strcmp(arg, "--frames") == 0) {
      const char* v = value();
      if (!v || !parse_int_range(v, &min_frames, &max_frames)) {
        return usage();
      }
    } else if (std::strcmp(arg, "--scenario-seeds") == 0) {
      const char* v = value();
      if (!v || !parse_u64_list(v, &scenario_seeds)) return usage();
      scenario_seeds_set = true;
    } else if (std::strcmp(arg, "--constant-q") == 0) {
      const char* v = value();
      if (!v || !parse_int(v, &constant_q)) return usage();
    } else if (std::strcmp(arg, "--policies") == 0) {
      const char* v = value();
      if (!v || !parse_policy_list(v, &kinds)) return usage();
    } else if (std::strcmp(arg, "--quantum") == 0) {
      const char* v = value();
      std::uint64_t q = 0;
      if (!v || !parse_u64(v, &q) || q == 0) return usage();
      quantum = static_cast<rt::Cycles>(q);
    } else if (std::strcmp(arg, "--ctx-switch") == 0) {
      const char* v = value();
      std::uint64_t c = 0;
      if (!v || !parse_u64(v, &c)) return usage();
      ctx_switch = static_cast<rt::Cycles>(c);
    } else if (std::strcmp(arg, "--reneg") == 0) {
      const char* v = value();
      if (!v) return usage();
      if (std::strcmp(v, "off") == 0) {
        sweep.renegotiate = {false};
      } else if (std::strcmp(v, "on") == 0) {
        sweep.renegotiate = {true};
      } else if (std::strcmp(v, "both") == 0) {
        sweep.renegotiate = {false, true};
      } else {
        return usage();
      }
    } else if (std::strcmp(arg, "--faults") == 0) {
      const char* v = value();
      if (!v) return usage();
      if (std::strcmp(v, "off") == 0) {
        sweep.fault_axis = {false};
      } else if (std::strcmp(v, "on") == 0) {
        sweep.fault_axis = {true};
      } else if (std::strcmp(v, "both") == 0) {
        sweep.fault_axis = {false, true};
      } else {
        return usage();
      }
    } else if (std::strcmp(arg, "--overrun-prob") == 0) {
      const char* v = value();
      if (!v || !cli::parse_fraction(v, &sweep.faults.overrun.probability)) {
        return usage();
      }
    } else if (std::strcmp(arg, "--overrun-policy") == 0) {
      const char* v = value();
      if (!v || !farm::parse_overrun_policy(v, &sweep.faults.overrun.policy)) {
        return usage();
      }
    } else if (std::strcmp(arg, "--loss-prob") == 0) {
      const char* v = value();
      if (!v || !cli::parse_fraction(v, &sweep.faults.loss.probability)) {
        return usage();
      }
    } else if (std::strcmp(arg, "--fault-seed") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, &sweep.faults.seed)) return usage();
    } else if (std::strcmp(arg, "--latency-discount") == 0) {
      const char* v = value();
      if (!v || !cli::parse_fraction(v, &sweep.latency_discount)) {
        return usage();
      }
    } else if (std::strcmp(arg, "--admission") == 0) {
      const char* v = value();
      if (!v || !sched::parse_demand_algo_name(v, &admission)) return usage();
    } else if (std::strcmp(arg, "--split") == 0) {
      sweep.split = true;
    } else if (std::strcmp(arg, "--ts-window") == 0) {
      const char* v = value();
      if (!v || !parse_positive_cycles(v, &sweep.ts_window)) return usage();
    } else if (std::strcmp(arg, "--slo") == 0) {
      const char* v = value();
      if (!v) return usage();
      obs::SloSpec spec;
      std::string err;
      if (!obs::parse_slo(v, &spec, &err)) {
        std::fprintf(stderr, "qoseval: bad --slo '%s': %s\n", v, err.c_str());
        return usage();
      }
      sweep.slos.push_back(spec);
    } else if (std::strcmp(arg, "--seed") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, &sweep.farm_seed)) return usage();
    } else if (std::strcmp(arg, "--csv") == 0) {
      csv_path = value();
      if (!csv_path) return usage();
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr, "qoseval: unknown option %s\n", arg);
      return usage();
    }
  }
  // Reject an out-of-range baseline level here, loudly: admission
  // would reject every constant-policy stream and the sweep would
  // silently rank the controller against a vacuous baseline.
  const int num_levels =
      static_cast<int>(platform::figure5_quality_levels().size());
  if (sweep.num_processors < 1 || sweep.workers < 1 || streams < 1 ||
      min_frames < 1 || max_frames < min_frames || constant_q < 0 ||
      constant_q >= num_levels) {
    return usage();
  }
  sweep.constant_quality = static_cast<rt::QualityLevel>(constant_q);

  if (sweep.shards > sweep.num_processors) {
    std::fprintf(stderr, "qoseval: --shards %d exceeds --procs %d\n",
                 sweep.shards, sweep.num_processors);
    return usage();
  }

  if (sweep.ts_window == 0) {
    for (const obs::SloSpec& spec : sweep.slos) {
      if (spec.metric != obs::SloMetric::kRecoveryLatency) {
        std::fprintf(stderr,
                     "qoseval: --slo '%s' needs --ts-window (only "
                     "recovery_latency evaluates without the series)\n",
                     spec.text.c_str());
        return usage();
      }
    }
  }

  // Scenario axis: presets replace the default seed scenarios; an
  // explicit --scenario-seeds keeps both on the axis.
  if (presets.empty() || scenario_seeds_set) {
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
    if (streams_set) pp.num_streams = streams;
    sweep.preset_scenarios.push_back(farm::compile_preset(k, pp));
    sweep.scenario_names.push_back(farm::preset_name(k));
  }
  for (const sched::PolicyKind k : kinds) {
    sched::PolicyParams p;
    p.kind = k;
    p.context_switch_cost = ctx_switch;
    p.quantum = quantum;
    p.demand_algo = admission;
    sweep.sched_policies.push_back(p);
  }

  const quality::SweepResult result = quality::run_sweep(sweep);
  if (!quiet) std::fputs(quality::summarize(result).c_str(), stdout);
  if (csv_path &&
      !cli::write_file("qoseval", csv_path, quality::to_csv(result))) {
    return 1;
  }
  return 0;
}
