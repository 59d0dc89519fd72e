// Helpers shared by the farm tests: small streams and scenarios, the
// configs they run under, the miss-free check, and the FNV-1a digests
// the report pins use.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "farm/presets.h"
#include "farm/simulator.h"
#include "obs/buildinfo.h"
#include "obs/slo.h"

namespace qosctrl::farm {

/// qmin worst case per macroblock (pinned in admission_test.cpp); the
/// pinned mixes are built from it, so their arithmetic is exact.
inline constexpr rt::Cycles kM = 176000;

inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

/// FNV-1a of a JSON report with its build-provenance fields (version,
/// compiler, SIMD backend) stripped, so the pin survives rebuilds.
inline std::uint64_t report_digest(std::string json) {
  const std::string provenance = obs::build_json_fields();
  if (const std::size_t at = json.find(provenance); at != std::string::npos) {
    json.erase(at, provenance.size());
  }
  return fnv1a(json);
}

/// 32x32 luma (4 macroblocks) keeps the pixel math cheap in tests.
inline StreamSpec tiny_stream(int id, double period_factor, int frames = 6) {
  StreamSpec s;
  s.id = id;
  s.width = 32;
  s.height = 32;
  s.num_frames = frames;
  s.num_scenes = 1;
  s.frame_period = static_cast<rt::Cycles>(
      static_cast<double>(default_frame_period(4)) * period_factor);
  return s;
}

inline FarmConfig two_proc_config() {
  FarmConfig cfg;
  cfg.num_processors = 2;
  // The pinned mixes' arithmetic is exact in m; keep the migration
  // surcharge out of it (admission_test.cpp pins the surcharge).
  cfg.admission.migration_cost = 0;
  return cfg;
}

inline void expect_all_admitted_miss_free(const FarmResult& r) {
  for (const StreamOutcome& so : r.streams) {
    if (!so.placement.admitted) continue;
    EXPECT_EQ(so.display_misses, 0)
        << "stream " << so.spec.id << " missed its display deadline";
    EXPECT_EQ(so.result.total_deadline_misses, 0)
        << "stream " << so.spec.id << " missed a paced deadline";
    EXPECT_EQ(so.result.total_skips, 0)
        << "stream " << so.spec.id << " dropped a camera frame";
  }
}

/// The split-limited mix under preemptive EDF: one controlled
/// incumbent per processor (16x16, T = D = 4m; the 0.25 share cap
/// makes the qmin minimum m its only candidate, so each processor
/// carries utilization 0.25), then a constant-quality newcomer (32x32
/// at qmin, worst case C = 4m, T = D = 5m, utilization 0.8).  Whole,
/// the newcomer overflows the utilization cap on both processors
/// (0.25 + 0.8 > 1); split, the largest zero-slack head the preemptive
/// demand test admits next to (m, 4m, 4m) is exactly 3m — at t = 4m
/// demand is m + C1, so C1 <= 3m — leaving a tail (4m - 3m, 5m - 3m,
/// 5m) = (m, 2m, 5m) that trivially fits the other processor.  C=D
/// splitting is left off.
inline FarmScenario split_limited_mix() {
  FarmScenario sc;
  sc.sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
  for (int i = 0; i < 2; ++i) {
    StreamSpec inc;
    inc.id = i;
    inc.width = 16;
    inc.height = 16;
    inc.num_frames = 4;
    inc.num_scenes = 1;
    inc.frame_period = 4 * kM;
    inc.buffer_capacity = 1;
    sc.streams.push_back(inc);
  }
  StreamSpec n;
  n.id = 2;
  n.width = 32;
  n.height = 32;
  n.num_frames = 4;
  n.num_scenes = 1;
  n.frame_period = 5 * kM;
  n.buffer_capacity = 1;
  n.mode = pipe::ControlMode::kConstantQuality;
  n.constant_quality = 0;
  sc.streams.push_back(n);
  return sc;
}

/// 24 flash-crowd joins: 8 processors hold 32, so nothing is rejected.
inline FarmScenario small_flash_crowd() {
  PresetParams pp;
  pp.num_streams = 24;
  return compile_preset(PresetKind::kFlashCrowd, pp);
}

/// `sc` on 8 traced processors at one (workers, shards) combination,
/// optionally sampled into series and scored against `slos`.
inline FarmResult run_combo(const FarmScenario& sc, int workers, int shards,
                            rt::Cycles ts_window = 0,
                            std::vector<obs::SloSpec> slos = {}) {
  FarmConfig cfg;
  cfg.num_processors = 8;
  cfg.workers = workers;
  cfg.shards = shards;
  cfg.trace = true;
  cfg.ts_window = ts_window;
  cfg.slos = std::move(slos);
  return run_farm(sc, cfg);
}

}  // namespace qosctrl::farm
