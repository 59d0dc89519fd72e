// qosfarm — encoder-farm simulator driver.
//
// Usage:
//   qosfarm run [options]      generate a load and run it under
//                              admission control
//
// Options (key value pairs):
//   --procs N         virtual processors (default 2)
//   --workers N       host worker threads for the data plane
//                     (default: one per processor)
//   --streams N       offered streams (default 12; with --preset,
//                     overrides the preset's stream count)
//   --preset NAME     run a named scenario preset instead of the random
//                     load: diurnal, flash-crowd, churn-heavy, or
//                     mixed-geometry (see docs/scenarios.md)
//   --shards S        partition the processors into S contiguous
//                     admission shards fronted by the control-plane
//                     router (default 1: single controller)
//   --probe-shards N  extra shards probed after the preferred one
//                     rejects a join (default 1)
//   --rebalance-watermark F  migrate streams off a shard whose
//                     utilization headroom drops below F (default 0:
//                     rebalancing off)
//   --control-epoch C batch joins landing in the same C-cycle control
//                     window: one rebalance pass and one join_batch
//                     trace instant per batch (default 0: per-join)
//   --frames LO[:HI]  stream lifetime range in frames (default 8:24)
//   --period-factors A,B,...  camera period scale factors relative to
//                     the default pacing (default 3,4,6)
//   --constant-frac F fraction of constant-quality streams (default 0.15)
//   --seed S          scenario + farm seed (default 7)
//   --policy P        per-processor scheduling class: np (default),
//                     preemptive, or quantum
//   --admission A     demand-test algorithm behind admission: qpa
//                     (default, the QPA fast path) or exact (the full
//                     check-point enumeration; same decisions, slower)
//   --split           C=D semi-partitioning: a stream no single
//                     processor can host whole may be split into a
//                     zero-slack head piece and a migrated tail piece
//   --quantum C       preemption boundary spacing in cycles for
//                     --policy quantum (default 1000000)
//   --ctx-switch C    context-switch cost in cycles charged per switch
//                     (default: platform::kContextSwitchCycles)
//   --renegotiate     shrink running streams' budgets toward qmin to
//                     admit newcomers that would otherwise be rejected
//   --restore         grow previously-shrunk streams' budgets back up
//                     the certified ladder when departures free room
//   --migration-cost C  per-frame worst-case surcharge committed for a
//                     stream placed off its preferred processor
//                     (default: platform::kMigrationCycles)
//   --json PATH       write the JSON report
//   --csv PATH        write the per-stream CSV
//   --trace PATH      record a deterministic schedule trace and write
//                     it as Chrome trace-event JSON (open in Perfetto)
//   --trace-buf N     trace ring-buffer capacity per processor
//                     (default 65536 events; oldest dropped on overflow)
//   --ts-window W     record windowed time series with W-cycle windows
//                     (default off; like --trace, zero cost when off);
//                     the series lands in the report's "timeseries"
//                     section — render it with tools/qosreport
//   --slo SPEC        declarative objective over the series, e.g.
//                     'latency_p99<0.8*window@50ms' or
//                     'miss_rate<=0.02:controlled%0.1' (repeatable; see
//                     docs/timeseries-slo.md for the grammar).  Windowed
//                     metrics need --ts-window; recovery_latency works
//                     without it
//   --slo-exit        exit with status 3 when any objective is missed
//                     (the CI gate)
//   --quiet           suppress the human-readable report
//
//   qosfarm --version prints build provenance (git describe, compiler,
//   active SIMD backend) and exits.
//
// Fault injection (see src/farm/faults.h for the fault model):
//   --faults LIST     enable fault classes with their defaults; LIST is
//                     a comma subset of overrun,loss (overrun: p=0.2
//                     factor=3 policy=abort; loss: p=0.1)
//   --overrun-prob F  per-frame WCET-overrun probability (enables
//                     overruns when > 0)
//   --overrun-factor X  demand multiplier of an overrunning frame (> 1)
//   --overrun-policy P  abort (conceal only), downgrade (force one
//                     certified rung down), or quarantine
//   --overrun-strikes N  policed overruns before quarantine (>= 1)
//   --loss-prob F     per-frame post-encode loss probability (enables
//                     loss when > 0)
//   --fail P@T[+R]    halt processor P at cycle T; with +R the halt is
//                     transient and repairs after R cycles, without it
//                     the failure is permanent and resident streams are
//                     re-admitted across the survivors (repeatable)
//   --fault-seed S    root of the per-stream fault draws (default:
//                     derived from the farm seed)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_util.h"
#include "farm/faults.h"
#include "farm/load_gen.h"
#include "farm/metrics.h"
#include "farm/presets.h"
#include "farm/simulator.h"
#include "obs/buildinfo.h"
#include "obs/trace.h"

namespace {

using namespace qosctrl;
using cli::parse_double_list;
using cli::parse_fraction;
using cli::parse_int;
using cli::parse_int_range;
using cli::parse_positive_cycles;
using cli::parse_u64;

const char kUsage[] =
    "usage: qosfarm run [--procs N] [--workers N] [--streams N]\n"
    "                   [--preset diurnal|flash-crowd|churn-heavy|"
    "mixed-geometry]\n"
    "                   [--shards S] [--probe-shards N]\n"
    "                   [--rebalance-watermark F] [--control-epoch C]\n"
    "                   [--frames LO[:HI]] [--period-factors A,B,...]\n"
    "                   [--constant-frac F] [--seed S]\n"
    "                   [--policy np|preemptive|quantum] [--quantum C]\n"
    "                   [--admission exact|qpa] [--split]\n"
    "                   [--ctx-switch C] [--renegotiate] [--restore]\n"
    "                   [--migration-cost C]\n"
    "                   [--faults overrun,loss] [--overrun-prob F]\n"
    "                   [--overrun-factor X]\n"
    "                   [--overrun-policy abort|downgrade|quarantine]\n"
    "                   [--overrun-strikes N] [--loss-prob F]\n"
    "                   [--fail P@T[+R]] [--fault-seed S]\n"
    "                   [--json PATH] [--csv PATH]\n"
    "                   [--trace PATH] [--trace-buf N]\n"
    "                   [--ts-window W] [--slo SPEC] [--slo-exit]\n"
    "                   [--quiet]\n"
    "       qosfarm --version\n"
    "       qosfarm --help\n";

int usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

bool write_file(const char* path, const std::string& content) {
  return cli::write_file("qosfarm", path, content);
}

/// "P@T" (permanent) or "P@T+R" (transient, repairs after R cycles).
bool parse_failure(const char* s, farm::FailureEvent* ev) {
  const char* at = std::strchr(s, '@');
  if (!at || at == s) return false;
  const std::string proc(s, at);
  if (!parse_int(proc.c_str(), &ev->processor) || ev->processor < 0) {
    return false;
  }
  std::uint64_t time = 0, repair = 0;
  if (const char* plus = std::strchr(at + 1, '+')) {
    const std::string when(at + 1, plus);
    if (!parse_u64(when.c_str(), &time) || !parse_u64(plus + 1, &repair) ||
        repair == 0) {
      return false;
    }
  } else if (!parse_u64(at + 1, &time)) {
    return false;
  }
  ev->time = static_cast<rt::Cycles>(time);
  ev->repair = static_cast<rt::Cycles>(repair);
  return true;
}

/// Comma subset of "overrun","loss"; enables each class at its default
/// strength unless an explicit probability already set one.
bool enable_fault_classes(const char* s, farm::FaultSpec* faults) {
  const std::vector<std::string> items = cli::split_commas(s);
  if (items.empty()) return false;
  for (const std::string& item : items) {
    if (item == "overrun") {
      if (faults->overrun.probability <= 0.0) {
        faults->overrun.probability = 0.2;
      }
    } else if (item == "loss") {
      if (faults->loss.probability <= 0.0) faults->loss.probability = 0.1;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", obs::version_line("qosfarm").c_str());
    return 0;
  }
  if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                    std::strcmp(argv[1], "-h") == 0)) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (argc < 2 || std::strcmp(argv[1], "run") != 0) return usage();

  farm::LoadGenConfig load;
  farm::FarmConfig cfg;
  cfg.workers = 0;  // default: one per processor
  farm::SchedulingSpec sched;
  sched.policy.context_switch_cost = platform::kContextSwitchCycles;
  sched.policy.quantum = 1000000;  // 125 us at the paper's 8 GHz
  farm::FaultSpec faults;
  const char* json_path = nullptr;
  const char* csv_path = nullptr;
  const char* trace_path = nullptr;
  const char* preset_arg = nullptr;
  bool streams_set = false;
  bool quiet = false;
  bool slo_exit = false;

  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--procs") == 0) {
      const char* v = value();
      if (!v || !parse_int(v, &cfg.num_processors)) return usage();
    } else if (std::strcmp(arg, "--workers") == 0) {
      const char* v = value();
      if (!v || !parse_int(v, &cfg.workers)) return usage();
    } else if (std::strcmp(arg, "--streams") == 0) {
      const char* v = value();
      if (!v || !parse_int(v, &load.num_streams)) return usage();
      streams_set = true;
    } else if (std::strcmp(arg, "--preset") == 0) {
      preset_arg = value();
      if (!preset_arg) return usage();
    } else if (std::strcmp(arg, "--shards") == 0) {
      const char* v = value();
      if (!v || !parse_int(v, &cfg.shards) || cfg.shards < 1) {
        return usage();
      }
    } else if (std::strcmp(arg, "--probe-shards") == 0) {
      const char* v = value();
      if (!v || !parse_int(v, &cfg.probe_shards) || cfg.probe_shards < 0) {
        return usage();
      }
    } else if (std::strcmp(arg, "--rebalance-watermark") == 0) {
      const char* v = value();
      if (!v || !parse_fraction(v, &cfg.rebalance_watermark) ||
          cfg.rebalance_watermark >= 1.0) {
        return usage();
      }
    } else if (std::strcmp(arg, "--control-epoch") == 0) {
      const char* v = value();
      std::uint64_t c = 0;
      if (!v || !parse_u64(v, &c)) return usage();
      cfg.control_epoch = static_cast<rt::Cycles>(c);
    } else if (std::strcmp(arg, "--frames") == 0) {
      const char* v = value();
      if (!v || !parse_int_range(v, &load.min_frames, &load.max_frames)) {
        return usage();
      }
    } else if (std::strcmp(arg, "--period-factors") == 0) {
      const char* v = value();
      if (!v || !parse_double_list(v, &load.period_factors)) return usage();
    } else if (std::strcmp(arg, "--constant-frac") == 0) {
      const char* v = value();
      if (!v || !parse_fraction(v, &load.constant_mode_fraction)) {
        return usage();
      }
    } else if (std::strcmp(arg, "--seed") == 0) {
      const char* v = value();
      std::uint64_t s = 0;
      if (!v || !parse_u64(v, &s)) return usage();
      load.seed = s;
      cfg.seed = s * 0x9e3779b9ULL + 1;
    } else if (std::strcmp(arg, "--policy") == 0) {
      const char* v = value();
      if (!v || !sched::parse_policy_name(v, &sched.policy.kind)) {
        return usage();
      }
    } else if (std::strcmp(arg, "--admission") == 0) {
      const char* v = value();
      if (!v || !sched::parse_demand_algo_name(v, &sched.policy.demand_algo)) {
        return usage();
      }
    } else if (std::strcmp(arg, "--split") == 0) {
      sched.split = true;
    } else if (std::strcmp(arg, "--quantum") == 0) {
      const char* v = value();
      std::uint64_t q = 0;
      if (!v || !parse_u64(v, &q) || q == 0) return usage();
      sched.policy.quantum = static_cast<rt::Cycles>(q);
    } else if (std::strcmp(arg, "--ctx-switch") == 0) {
      const char* v = value();
      std::uint64_t c = 0;
      if (!v || !parse_u64(v, &c)) return usage();
      sched.policy.context_switch_cost = static_cast<rt::Cycles>(c);
    } else if (std::strcmp(arg, "--renegotiate") == 0) {
      sched.renegotiate = true;
    } else if (std::strcmp(arg, "--restore") == 0) {
      sched.restore = true;
    } else if (std::strcmp(arg, "--migration-cost") == 0) {
      const char* v = value();
      std::uint64_t c = 0;
      if (!v || !parse_u64(v, &c)) return usage();
      cfg.admission.migration_cost = static_cast<rt::Cycles>(c);
    } else if (std::strcmp(arg, "--faults") == 0) {
      const char* v = value();
      if (!v || !enable_fault_classes(v, &faults)) return usage();
    } else if (std::strcmp(arg, "--overrun-prob") == 0) {
      const char* v = value();
      if (!v || !parse_fraction(v, &faults.overrun.probability)) {
        return usage();
      }
    } else if (std::strcmp(arg, "--overrun-factor") == 0) {
      const char* v = value();
      if (!v || !cli::parse_double(v, &faults.overrun.factor) ||
          faults.overrun.factor <= 1.0) {
        return usage();
      }
    } else if (std::strcmp(arg, "--overrun-policy") == 0) {
      const char* v = value();
      if (!v || !farm::parse_overrun_policy(v, &faults.overrun.policy)) {
        return usage();
      }
    } else if (std::strcmp(arg, "--overrun-strikes") == 0) {
      const char* v = value();
      if (!v || !parse_int(v, &faults.overrun.quarantine_strikes) ||
          faults.overrun.quarantine_strikes < 1) {
        return usage();
      }
    } else if (std::strcmp(arg, "--loss-prob") == 0) {
      const char* v = value();
      if (!v || !parse_fraction(v, &faults.loss.probability)) return usage();
    } else if (std::strcmp(arg, "--fail") == 0) {
      const char* v = value();
      farm::FailureEvent ev;
      if (!v || !parse_failure(v, &ev)) return usage();
      faults.failures.push_back(ev);
    } else if (std::strcmp(arg, "--fault-seed") == 0) {
      const char* v = value();
      if (!v || !parse_u64(v, &faults.seed)) return usage();
    } else if (std::strcmp(arg, "--json") == 0) {
      json_path = value();
      if (!json_path) return usage();
    } else if (std::strcmp(arg, "--csv") == 0) {
      csv_path = value();
      if (!csv_path) return usage();
    } else if (std::strcmp(arg, "--trace") == 0) {
      trace_path = value();
      if (!trace_path) return usage();
      cfg.trace = true;
    } else if (std::strcmp(arg, "--trace-buf") == 0) {
      const char* v = value();
      if (!v || !parse_int(v, &cfg.trace_buffer_capacity) ||
          cfg.trace_buffer_capacity < 1) {
        return usage();
      }
    } else if (std::strcmp(arg, "--ts-window") == 0) {
      const char* v = value();
      if (!v || !parse_positive_cycles(v, &cfg.ts_window)) {
        std::fprintf(stderr,
                     "qosfarm: --ts-window wants a positive cycle count "
                     "below 2^63\n");
        return usage();
      }
    } else if (std::strcmp(arg, "--slo") == 0) {
      const char* v = value();
      obs::SloSpec spec;
      std::string error;
      if (!v || !obs::parse_slo(v, &spec, &error)) {
        std::fprintf(stderr, "qosfarm: bad --slo '%s': %s\n",
                     v ? v : "", error.c_str());
        return usage();
      }
      cfg.slos.push_back(std::move(spec));
    } else if (std::strcmp(arg, "--slo-exit") == 0) {
      slo_exit = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr, "qosfarm: unknown option %s\n", arg);
      return usage();
    }
  }
  if (cfg.num_processors < 1 || load.num_streams < 0 ||
      load.min_frames < 1 || load.max_frames < load.min_frames) {
    return usage();
  }
  if (cfg.shards > cfg.num_processors) {
    std::fprintf(stderr, "qosfarm: --shards %d exceeds --procs %d\n",
                 cfg.shards, cfg.num_processors);
    return usage();
  }
  // Failure targets can only be range-checked once --procs is known.
  for (const farm::FailureEvent& ev : faults.failures) {
    if (ev.processor >= cfg.num_processors) {
      std::fprintf(stderr, "qosfarm: --fail processor %d out of range\n",
                   ev.processor);
      return usage();
    }
  }
  // Windowed objectives are meaningless without a series to evaluate
  // over; recovery_latency reads the failure outcomes instead.
  for (const obs::SloSpec& spec : cfg.slos) {
    if (spec.metric != obs::SloMetric::kRecoveryLatency &&
        cfg.ts_window == 0) {
      std::fprintf(stderr,
                   "qosfarm: --slo '%s' needs --ts-window (only "
                   "recovery_latency evaluates without the series)\n",
                   spec.text.c_str());
      return usage();
    }
  }
  if (cfg.workers <= 0) cfg.workers = cfg.num_processors;
  // run_farm clamps the same way; clamp here too so the report's
  // "(N workers)" matches what the measurement actually used.
  if (cfg.workers > cfg.num_processors) cfg.workers = cfg.num_processors;

  farm::FarmScenario scenario;
  if (preset_arg != nullptr) {
    farm::PresetKind kind;
    if (!farm::parse_preset_name(preset_arg, &kind)) {
      std::fprintf(stderr, "qosfarm: unknown preset %s\n", preset_arg);
      return usage();
    }
    farm::PresetParams pp;
    if (streams_set) pp.num_streams = load.num_streams;
    pp.seed = load.seed;
    scenario = farm::compile_preset(kind, pp);
  } else {
    scenario = farm::generate_scenario(load);
  }
  scenario.sched = sched;
  scenario.faults = faults;
  const auto t0 = std::chrono::steady_clock::now();
  const farm::FarmResult result = farm::run_farm(scenario, cfg);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double frames_per_s =
      wall_s > 0.0 ? static_cast<double>(result.total_frames) / wall_s : 0.0;

  if (!quiet) {
    std::fputs(farm::summarize(result).c_str(), stdout);
    std::printf(
        "wall=%.3fs throughput=%.1f stream-frames/s (%d workers)\n",
        wall_s, frames_per_s, cfg.workers);
  }
  if (json_path && !write_file(json_path, farm::to_json(result))) return 1;
  if (csv_path && !write_file(csv_path, farm::to_csv(result))) return 1;
  if (trace_path &&
      !write_file(trace_path, obs::export_chrome_trace(
                                  result.trace, cfg.num_processors))) {
    return 1;
  }
  if (slo_exit && !result.slo.all_met()) {
    std::fprintf(stderr, "qosfarm: SLO missed\n");
    return 3;
  }
  return 0;
}
