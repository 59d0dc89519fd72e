// The traced run: per-layer host time of one workload.
//
// After one run_farm call the harness replays that run's work layer by
// layer through each module's public functions, driven by the
// FarmResult, and records spans in memory around every call:
//
//  * control plane — the joins, leaves and failover re-admissions
//    through a fresh ShardedControlPlane + TableCache, once with a cold
//    cache and once warm (the difference is the table compilation);
//  * data plane — one pipe::StreamSession per admitted stream segment,
//    fed the frames the simulator served in the order it served them.
//    SyntheticVideo synthesis and quality::measure are timed as sibling
//    spans of each session call, so a call's self time is its span
//    minus the siblings' (the calls do the same synthesis and scoring
//    inside).
//
// The replay mirrors the simulator paths the benchmark's workloads
// take (non-preemptive EDF, whole placements, overrun downgrades,
// processor failures, loss); encoder.encode.replay_match_ratio reports
// how many replayed encodes reproduced the recorded bits and cycles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Profile {
  std::vector<Metric> metrics;
  /// Layers sorted by busy share, plus the unattributed remainder.
  std::string table;
  /// Empty when every output and shape check passed.
  std::string error;
  std::uint64_t digest = 0;
};

/// Profiles one workload; writes every recorded span as Chrome
/// trace-event JSON to `spans_path`.
Profile profile_workload(const Workload& w, std::uint64_t seed, int workers,
                         const std::string& spans_path);

}  // namespace perfbench
