// Adaptive average-time estimation — the paper's Section 4 future work
// "application of learning techniques for better estimation of the
// average execution times", made concrete.
//
// The quality constraints use two inputs of very different nature:
//  * worst-case times underwrite the SAFETY half (Qual_Const_wc) and
//    must stay conservative — we never touch them;
//  * average times drive the OPTIMALITY half (Qual_Const_av) and are
//    only as good as the profiling run that produced them.  When the
//    deployed content is systematically lighter (or heavier) than the
//    profile, a static table either wastes budget or oscillates.
//
// AdaptiveController therefore learns a per-action cost ratio
// (actual / table-average, EWMA-smoothed, quality-independent because
// content scale is) and rebuilds the *average* half of the compact
// periodic tables from the scaled estimates at every cycle start.
// Safety is untouched: the worst-case tables, and hence Proposition
// 2.1's zero-miss guarantee, are exactly those of the static
// controller (tested under adversarial costs).
#pragma once

#include <memory>
#include <vector>

#include "qos/controller.h"
#include "qos/periodic_tables.h"

namespace qosctrl::qos {

/// Learned ratios are clamped to [kMinCostRatio, kMaxCostRatio] so a
/// burst of outliers cannot zero out or explode the estimates.
inline constexpr double kMinCostRatio = 0.2;
inline constexpr double kMaxCostRatio = 5.0;

struct AdaptiveConfig {
  /// EWMA weight of a new observation (0 < alpha <= 1).
  double ewma_alpha = 0.05;
};

/// A Controller that learns average execution times online.
class AdaptiveController : public Controller {
 public:
  /// `body` describes the iterative cycle (same input as the compact
  /// tables); `soft` selects the av-only constraint.
  AdaptiveController(PeriodicBody body, AdaptiveConfig config = {},
                     bool soft = false);

  void start_cycle() override;
  bool done() const override { return i_ >= tables_->num_positions(); }
  Decision next(rt::Cycles t) override;

  /// Feeds back the actual cost of the action returned by the last
  /// next() call.  Updates the EWMA ratio of that body action.
  void observe(rt::Cycles actual_cost) override;

  /// Current learned ratio for body order position k (1.0 = profile).
  double ratio(std::size_t k) const { return ratios_[k]; }

 private:
  void rebuild_tables();

  PeriodicBody profile_;  ///< the static (profiled) body
  AdaptiveConfig config_;
  bool soft_;
  std::vector<double> ratios_;  ///< per body-order position
  std::shared_ptr<const PeriodicSlackTables> tables_;
  std::size_t i_ = 0;
  // Last decision, for observe().
  std::size_t last_k_ = 0;
  std::size_t last_qi_ = 0;
  bool have_last_ = false;
};

}  // namespace qosctrl::qos
