#include "farm/load_gen.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/rng.h"

namespace qosctrl::farm {
namespace {

/// Mean join inter-arrival in units of the *smallest* stream period
/// (exponential gaps).
constexpr double kMeanInterarrivalPeriods = 0.5;
/// Scenes per stream are uniform in [1, kMaxScenes], capped by the
/// stream's lifetime (the synthetic source needs a frame per scene).
constexpr int kMaxScenes = 3;
/// Latency contracts K to draw from, uniformly.
constexpr std::array<int, 3> kBufferCapacities = {1, 1, 2};
/// A constant-quality stream's level is uniform in
/// [kConstantQualityLo, kConstantQualityHi].
constexpr rt::QualityLevel kConstantQualityLo = 1;
constexpr rt::QualityLevel kConstantQualityHi = 4;

std::size_t weighted_pick(util::Rng& rng, const std::vector<double>& w) {
  double total = 0.0;
  for (const double x : w) total += x;
  double r = rng.uniform(0.0, total);
  for (std::size_t i = 0; i < w.size(); ++i) {
    r -= w[i];
    if (r < 0.0) return i;
  }
  return w.size() - 1;
}

}  // namespace

FarmScenario generate_scenario(const LoadGenConfig& config) {
  QC_EXPECT(config.num_streams >= 0, "num_streams must be >= 0");
  QC_EXPECT(!config.resolutions.empty(), "need at least one resolution");
  QC_EXPECT(config.resolutions.size() == config.resolution_weights.size(),
            "one weight per resolution required");
  double weight_total = 0.0;
  for (const double w : config.resolution_weights) {
    QC_EXPECT(w >= 0.0, "resolution weights must be >= 0");
    weight_total += w;
  }
  QC_EXPECT(weight_total > 0.0, "resolution weights must not all be zero");
  QC_EXPECT(!config.period_factors.empty(), "need at least one period factor");
  QC_EXPECT(config.min_frames >= 1 && config.max_frames >= config.min_frames,
            "frame lifetime range must be non-empty");

  // Independent decision streams so that, e.g., adding a resolution
  // option does not reshuffle every stream's lifetime.
  util::Rng root(config.seed);
  util::Rng arrival_rng = root.fork(1);
  util::Rng shape_rng = root.fork(2);
  util::Rng mode_rng = root.fork(3);

  // The smallest candidate period calibrates the join process.
  rt::Cycles min_period = std::numeric_limits<rt::Cycles>::max();
  for (const auto& [w, h] : config.resolutions) {
    QC_EXPECT(w > 0 && h > 0 && w % 16 == 0 && h % 16 == 0,
              "resolutions must be positive multiples of 16");
    const int mb = (w / 16) * (h / 16);
    for (const double f : config.period_factors) {
      QC_EXPECT(f > 0.0, "period factors must be positive");
      const auto p = static_cast<rt::Cycles>(
          std::llround(static_cast<double>(default_frame_period(mb)) * f));
      min_period = std::min(min_period, p);
    }
  }

  FarmScenario scenario;
  scenario.streams.reserve(static_cast<std::size_t>(config.num_streams));
  rt::Cycles now = 0;
  int id = 0;
  while (id < config.num_streams) {
    // Poisson gap, then possibly a burst of simultaneous joins.
    const double gap_periods =
        -std::log(1.0 - arrival_rng.uniform_01()) *
        kMeanInterarrivalPeriods;
    now += static_cast<rt::Cycles>(
        std::llround(gap_periods * static_cast<double>(min_period)));
    int batch = 1;
    if (arrival_rng.chance(kBurstProbability)) {
      batch += static_cast<int>(arrival_rng.uniform_i64(1, kMaxBurst - 1));
    }
    for (int b = 0; b < batch && id < config.num_streams; ++b, ++id) {
      StreamSpec s;
      s.id = id;
      s.join_time = now;
      const std::size_t ri = weighted_pick(shape_rng,
                                           config.resolution_weights);
      s.width = config.resolutions[ri].first;
      s.height = config.resolutions[ri].second;
      const double pf = config.period_factors[static_cast<std::size_t>(
          shape_rng.uniform_i64(
              0, static_cast<std::int64_t>(config.period_factors.size()) -
                     1))];
      s.frame_period = static_cast<rt::Cycles>(std::llround(
          static_cast<double>(default_frame_period(macroblocks_of(s))) *
          pf));
      s.buffer_capacity = kBufferCapacities[static_cast<std::size_t>(
          shape_rng.uniform_i64(
              0, static_cast<std::int64_t>(kBufferCapacities.size()) - 1))];
      s.num_frames = static_cast<int>(shape_rng.uniform_i64(
          config.min_frames, config.max_frames));
      s.num_scenes = static_cast<int>(
          shape_rng.uniform_i64(1, std::min(kMaxScenes, s.num_frames)));
      if (mode_rng.chance(config.constant_mode_fraction)) {
        s.mode = pipe::ControlMode::kConstantQuality;
        s.constant_quality = static_cast<rt::QualityLevel>(
            mode_rng.uniform_i64(kConstantQualityLo, kConstantQualityHi));
      }
      scenario.streams.push_back(s);
    }
  }
  return scenario;
}

}  // namespace qosctrl::farm
