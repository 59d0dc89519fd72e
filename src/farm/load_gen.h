// Scenario generator for the encoder farm: turns a small config into a
// deterministic offered load with stream churn — Poisson joins, bursty
// batch arrivals, heterogeneous geometries, periods, latencies, and
// control modes, and bounded lifetimes (leaves).
//
// Determinism: every random choice draws from streams forked off the
// config seed, so the same config always yields the same scenario —
// which the simulator then plays bit-identically for any worker count.
#pragma once

#include <utility>
#include <vector>

#include "farm/scenario.h"

namespace qosctrl::farm {

/// Joins arrive as a Poisson process (kMeanInterarrivalPeriods in
/// load_gen.cpp).  Probability that a join is a burst; a burst adds up
/// to kMaxBurst - 1 extra simultaneous joins.
inline constexpr double kBurstProbability = 0.15;
inline constexpr int kMaxBurst = 3;

struct LoadGenConfig {
  int num_streams = 12;

  /// Candidate luma geometries (width, height multiples of 16) and
  /// their selection weights (need not be normalized).
  std::vector<std::pair<int, int>> resolutions = {{64, 48}, {80, 64},
                                                  {96, 80}};
  std::vector<double> resolution_weights = {0.5, 0.3, 0.2};

  /// Camera period scale factors relative to the default pacing of the
  /// chosen geometry (> 1 = slower camera, easier to host).  The
  /// default single-stream pacing leaves the qmin worst case at ~89%
  /// of the period — a farm packs several streams per processor only
  /// when cameras are slower than that, so the defaults are
  /// surveillance-style factors.
  std::vector<double> period_factors = {3.0, 4.0, 6.0};

  /// Stream lifetimes in frames, uniform in [min_frames, max_frames];
  /// scenes per stream are uniform in [1, min(kMaxScenes, lifetime)].
  int min_frames = 8;
  int max_frames = 24;

  /// Fraction of streams offered as constant-quality (uncontrolled)
  /// instead of table-controlled; their level is uniform in
  /// [kConstantQualityLo, kConstantQualityHi] (load_gen.cpp).
  double constant_mode_fraction = 0.15;

  std::uint64_t seed = 7;
};

/// Generates the offered load.  Stream ids are 0..num_streams-1 in
/// join order.
FarmScenario generate_scenario(const LoadGenConfig& config);

}  // namespace qosctrl::farm
