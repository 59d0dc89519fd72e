// The benchmark's named workloads: each is one qosfarm batch job over a
// preset's precompiled arrival trace, driven through the library's
// public functions (compile_preset -> run_farm -> report writers).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "farm/presets.h"
#include "farm/simulator.h"

namespace perfbench {

struct Workload {
  const char* name;
  qosctrl::farm::PresetKind preset;
  int streams;
  int procs;
  int shards;
  /// Fault and observability specs in qosfarm's spelling; parsed as part
  /// of set-up, like the CLI does.
  const char* fault_classes;   ///< "" = fault-free
  const char* overrun_policy;  ///< "" = the library default
  std::vector<const char*> failures;  ///< "P@T" or "P@T+R"
  std::vector<const char*> slos;
  std::int64_t ts_window;  ///< 0 = series off
  bool trace;              ///< schedule trace on (and exported)
  /// Writes the JSON, CSV and trace reports as part of the job.
  bool reports;
};

/// The workload called `name`, or nullptr.
const Workload* find_workload(const std::string& name);

/// Everything run_farm needs: the compiled preset with the parsed fault
/// spec attached, and the farm config with the parsed objectives.
struct JobInput {
  qosctrl::farm::FarmScenario scenario;
  qosctrl::farm::FarmConfig config;
};

/// Set-up is repeated this many times per job and per traced run, and
/// its median reported; the job continues from the last set-up.
inline constexpr int kSetupRepeats = 9;

/// Set-up of one job: compiles the preset for `seed` and parses the fault
/// and SLO specs.  Seeds map as in `qosfarm run --seed`: the preset seed
/// is `seed`, the farm seed is derived from it.  Throws std::runtime_error
/// on a spec that does not parse.
JobInput set_up(const Workload& w, std::uint64_t seed, int workers);

/// Same run with every observability sink off (trace, series, SLOs).
qosctrl::farm::FarmConfig sinks_off(const qosctrl::farm::FarmConfig& cfg);

/// The reports a workload writes, rendered in memory.
struct Reports {
  std::string json;
  std::string csv;
  std::string trace;
};

Reports render_reports(const Workload& w, const qosctrl::farm::FarmResult& r);

/// FNV-1a digest of the rendered reports with the build-provenance fields
/// (version, compiler, SIMD backend) stripped, so it compares simulated
/// output across worker counts and builds.
std::uint64_t report_digest(const Reports& reports);

/// Shape guards: an empty string when the run exercised what the
/// workload exists to exercise, otherwise the first violated guard.
std::string check_shape(const Workload& w, const qosctrl::farm::FarmResult& r);

}  // namespace perfbench
