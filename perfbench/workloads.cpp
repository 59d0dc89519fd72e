#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "farm/faults.h"
#include "farm/metrics.h"
#include "obs/buildinfo.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using namespace qosctrl;

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"mixed-steady", farm::PresetKind::kMixedGeometry, 800, 32, 1, "", "",
       {}, {}, 0, false, false},
      {"diurnal-faulted", farm::PresetKind::kDiurnal, 400, 32, 1,
       "overrun,loss", "downgrade",
       {"0@J", "1@5000000000+200000000"},
       {"latency_p99<1.5w@20ms", "miss_rate<=0.5", "queue_p99<64"},
       100000000, true, true},
      {"flash-storm", farm::PresetKind::kFlashCrowd, 4000, 256, 16, "", "",
       {}, {}, 0, false, false},
  };
  return kWorkloads;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

/// "P@T" (permanent) or "P@T+R" (transient), as `qosfarm --fail`.  A
/// time of "J" means one camera period after the first stream joins:
/// that stream always lands on processor 0 (every processor is idle and
/// ties go to the lowest index), so failing processor 0 then re-admits
/// at least one stream on every seed.
farm::FailureEvent parse_failure(const std::string& text,
                                 const farm::FarmScenario& sc) {
  const std::size_t at = text.find('@');
  const std::size_t plus = text.find('+');
  std::uint64_t proc = 0, time = 0, repair = 0;
  const std::string when =
      at == std::string::npos
          ? ""
          : text.substr(at + 1, plus == std::string::npos ? std::string::npos
                                                           : plus - at - 1);
  if (when == "J" && !sc.streams.empty()) {
    const farm::StreamSpec& first = sc.streams.front();
    time = static_cast<std::uint64_t>(first.join_time +
                                      farm::period_of(first));
  }
  const bool ok =
      at != std::string::npos &&
      parse_u64(text.substr(0, at).c_str(), &proc) &&
      (time > 0 || parse_u64(when.c_str(), &time)) &&
      (plus == std::string::npos ||
       parse_u64(text.substr(plus + 1).c_str(), &repair));
  if (!ok) throw std::runtime_error("bad failure spec " + text);
  farm::FailureEvent ev;
  ev.processor = static_cast<int>(proc);
  ev.time = static_cast<rt::Cycles>(time);
  ev.repair = static_cast<rt::Cycles>(repair);
  return ev;
}

/// qosfarm's `--faults` classes at their default strengths.
void enable_fault_classes(const std::string& list, farm::FaultSpec* faults) {
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const std::string item = list.substr(pos, comma - pos);
    if (item == "overrun") {
      faults->overrun.probability = 0.2;
    } else if (item == "loss") {
      faults->loss.probability = 0.1;
    } else {
      throw std::runtime_error("bad fault class " + item);
    }
    pos = comma + 1;
  }
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

JobInput set_up(const Workload& w, std::uint64_t seed, int workers) {
  JobInput in;
  farm::PresetParams pp;
  pp.num_streams = w.streams;
  pp.seed = seed;
  in.scenario = farm::compile_preset(w.preset, pp);
  in.scenario.sched.policy.context_switch_cost =
      platform::kContextSwitchCycles;
  in.scenario.sched.policy.quantum = 1000000;

  farm::FaultSpec& faults = in.scenario.faults;
  if (*w.fault_classes != '\0') enable_fault_classes(w.fault_classes, &faults);
  if (*w.overrun_policy != '\0' &&
      !farm::parse_overrun_policy(w.overrun_policy, &faults.overrun.policy)) {
    throw std::runtime_error(std::string("bad overrun policy ") +
                             w.overrun_policy);
  }
  for (const char* f : w.failures) {
    faults.failures.push_back(parse_failure(f, in.scenario));
  }

  farm::FarmConfig& cfg = in.config;
  cfg.num_processors = w.procs;
  cfg.workers = std::min(workers, w.procs);
  cfg.shards = w.shards;
  cfg.seed = seed * 0x9e3779b9ULL + 1;
  cfg.trace = w.trace;
  cfg.ts_window = w.ts_window;
  for (const char* text : w.slos) {
    obs::SloSpec spec;
    std::string error;
    if (!obs::parse_slo(text, &spec, &error)) {
      throw std::runtime_error(std::string("bad slo ") + text + ": " + error);
    }
    cfg.slos.push_back(std::move(spec));
  }
  return in;
}

farm::FarmConfig sinks_off(const farm::FarmConfig& cfg) {
  farm::FarmConfig off = cfg;
  off.trace = false;
  off.ts_window = 0;
  off.slos.clear();
  return off;
}

Reports render_reports(const Workload& w, const farm::FarmResult& r) {
  Reports out;
  out.json = farm::to_json(r);
  if (w.reports) {
    out.csv = farm::to_csv(r);
    out.trace = obs::export_chrome_trace(r.trace, w.procs);
  }
  return out;
}

std::uint64_t report_digest(const Reports& reports) {
  std::string json = reports.json;
  const std::string provenance = obs::build_json_fields();
  if (const std::size_t at = json.find(provenance); at != std::string::npos) {
    json.erase(at, provenance.size());
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, json);
  h = fnv1a(h, reports.csv);
  return fnv1a(h, reports.trace);
}

std::string check_shape(const Workload& w, const farm::FarmResult& r) {
  if (r.total_frames <= 0) return "no frames simulated";
  if (!r.fault_spec.any() && r.total_display_misses != 0) {
    return "display misses on a fault-free workload: " +
           std::to_string(r.total_display_misses);
  }
  if (std::strcmp(w.name, "diurnal-faulted") == 0) {
    if (r.failover_readmissions < 1) return "no failover re-admission";
    if (r.total_concealed <= 0) return "no concealed frames";
    if (r.slo.objectives.size() != w.slos.size()) return "SLO verdicts missing";
  }
  if (std::strcmp(w.name, "flash-storm") == 0 &&
      static_cast<double>(r.rejected) < 0.3 * r.total_streams) {
    return "rejected share below 0.3";
  }
  return "";
}

}  // namespace perfbench
