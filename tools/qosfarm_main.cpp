// qosfarm — encoder-farm simulator driver.
//
//   qosfarm run [flags]   generate a load (or compile a named preset)
//                         and run it under admission control
//
// The flags are declared once, in the table in main; docs/cli.md
// documents each one.  Exit codes: 2 usage, 1 I/O, 3 a missed SLO
// under --slo-exit.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_util.h"
#include "farm/faults.h"
#include "farm/load_gen.h"
#include "farm/metrics.h"
#include "farm/presets.h"
#include "farm/simulator.h"
#include "obs/trace.h"

namespace {

using namespace qosctrl;
constexpr const char* kTool = "qosfarm";

/// Comma subset of "overrun","loss"; enables each class at its default
/// strength unless an explicit probability already set one.
bool enable_fault_classes(const char* s, farm::FaultSpec* faults) {
  std::vector<std::string> classes;
  const auto known = [](const char* item, std::string* out) {
    *out = item;
    return *out == "overrun" || *out == "loss";
  };
  if (!cli::parse_list(s, &classes, known)) return false;
  for (const std::string& c : classes) {
    if (c == "overrun" && faults->overrun.probability <= 0.0) {
      faults->overrun.probability = 0.2;
    }
    if (c == "loss" && faults->loss.probability <= 0.0) {
      faults->loss.probability = 0.1;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  farm::LoadGenConfig load;
  farm::FarmConfig cfg;
  cfg.workers = 0;  // default: one per processor
  farm::SchedulingSpec sched;
  sched.policy.context_switch_cost = platform::kContextSwitchCycles;
  sched.policy.quantum = 1000000;  // 125 us at the paper's 8 GHz
  farm::FaultSpec faults;
  farm::PresetKind preset{};
  const char* json_path = nullptr;
  const char* csv_path = nullptr;
  const char* trace_path = nullptr;
  bool preset_given = false;
  bool streams_given = false;
  bool quiet = false;
  bool slo_exit = false;

  const cli::CommandLine cl{kTool, "run", {
      cli::integer("--procs", "N", &cfg.num_processors, 1),
      cli::integer("--workers", "N", &cfg.workers, 0),
      cli::given(cli::integer("--streams", "N", &load.num_streams, 0),
                 &streams_given),
      cli::given(cli::named("--preset", "NAME", &preset,
                            farm::parse_preset_name),
                 &preset_given),
      cli::integer("--shards", "S", &cfg.shards, 1),
      cli::integer("--probe-shards", "N", &cfg.probe_shards, 0),
      {"--rebalance-watermark", "F",
       [&](const char* v) {
         double w = 0.0;
         if (!cli::parse_fraction(v, &w) || w >= 1.0) return false;
         cfg.rebalance_watermark = w;
         return true;
       }},
      cli::cycles("--control-epoch", "C", &cfg.control_epoch),
      cli::int_range("--frames", "LO[:HI]", &load.min_frames,
                     &load.max_frames, 1),
      cli::list("--period-factors", "A,B,...", &load.period_factors,
                [](const char* s, double* f) {
                  return cli::parse_double(s, f) && *f > 0.0;
                }),
      cli::fraction("--constant-frac", "F", &load.constant_mode_fraction),
      {"--seed", "S",
       [&](const char* v) {
         std::uint64_t s = 0;
         if (!cli::parse_u64(v, &s)) return false;
         load.seed = s;
         cfg.seed = s * 0x9e3779b9ULL + 1;
         return true;
       }},
      cli::named("--policy", "P", &sched.policy.kind,
                 sched::parse_policy_name),
      cli::enable("--split", &sched.split),
      cli::cycles("--quantum", "C", &sched.policy.quantum, 1),
      cli::cycles("--ctx-switch", "C", &sched.policy.context_switch_cost, 0,
                  platform::kMaxOverheadCycles),
      cli::enable("--renegotiate", &sched.renegotiate),
      cli::enable("--restore", &sched.restore),
      cli::cycles("--migration-cost", "C", &cfg.admission.migration_cost, 0,
                  platform::kMaxOverheadCycles),
      {"--faults", "LIST",
       [&](const char* v) { return enable_fault_classes(v, &faults); }},
      cli::fraction("--overrun-prob", "F", &faults.overrun.probability),
      cli::real_above("--overrun-factor", "X", &faults.overrun.factor, 1.0),
      cli::named("--overrun-policy", "P", &faults.overrun.policy,
                 farm::parse_overrun_policy),
      cli::integer("--overrun-strikes", "N",
                   &faults.overrun.quarantine_strikes, 1),
      cli::fraction("--loss-prob", "F", &faults.loss.probability),
      cli::append("--fail", "P@T[+R]", &faults.failures, cli::parse_failure),
      cli::u64("--fault-seed", "S", &faults.seed),
      cli::text("--json", "PATH", &json_path),
      cli::text("--csv", "PATH", &csv_path),
      cli::given(cli::text("--trace", "PATH", &trace_path), &cfg.trace),
      cli::integer("--trace-buf", "N", &cfg.trace_buffer_capacity, 1,
                   farm::kMaxTraceBufferCapacity),
      cli::cycles("--ts-window", "W", &cfg.ts_window, 1),
      cli::slo(kTool, &cfg.slos),
      cli::enable("--slo-exit", &slo_exit),
      cli::enable("--quiet", &quiet),
  }};
  if (const int rc = cl.parse(argc, argv); rc >= 0) return rc;
  if (!cli::shards_fit(kTool, cfg.shards, cfg.num_processors) ||
      !cli::slos_have_window(kTool, cfg.slos, cfg.ts_window)) {
    return cl.usage_error();
  }
  // Failure targets can only be range-checked once --procs is known.
  for (const farm::FailureEvent& ev : faults.failures) {
    if (ev.processor >= cfg.num_processors) {
      std::fprintf(stderr, "qosfarm: --fail processor %d out of range\n",
                   ev.processor);
      return cl.usage_error();
    }
  }
  if (cfg.workers == 0) cfg.workers = cfg.num_processors;
  // run_farm clamps the same way; clamp here too so the report's
  // "(N workers)" matches what the measurement actually used.
  if (cfg.workers > cfg.num_processors) cfg.workers = cfg.num_processors;

  farm::FarmScenario scenario;
  if (preset_given) {
    farm::PresetParams pp;
    if (streams_given) pp.num_streams = load.num_streams;
    pp.seed = load.seed;
    scenario = farm::compile_preset(preset, pp);
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
  if (json_path &&
      !cli::write_file(kTool, json_path, farm::to_json(result))) {
    return 1;
  }
  if (csv_path && !cli::write_file(kTool, csv_path, farm::to_csv(result))) {
    return 1;
  }
  if (trace_path &&
      !cli::write_file(kTool, trace_path,
                       obs::export_chrome_trace(result.trace,
                                                cfg.num_processors))) {
    return 1;
  }
  if (slo_exit && !result.slo.all_met()) {
    std::fprintf(stderr, "qosfarm: SLO missed\n");
    return 3;
  }
  return 0;
}
