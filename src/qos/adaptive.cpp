#include "qos/adaptive.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace qosctrl::qos {

AdaptiveController::AdaptiveController(PeriodicBody body,
                                       AdaptiveConfig config, bool soft)
    : profile_(std::move(body)), config_(config), soft_(soft) {
  QC_EXPECT(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0,
            "EWMA weight must be in (0, 1]");
  ratios_.assign(profile_.order.size(), 1.0);
  rebuild_tables();
}

void AdaptiveController::rebuild_tables() {
  PeriodicBody scaled = profile_;
  for (std::size_t qi = 0; qi < scaled.qualities.size(); ++qi) {
    for (std::size_t k = 0; k < scaled.order.size(); ++k) {
      const double learned =
          static_cast<double>(profile_.cav[qi][k]) * ratios_[k];
      // The learned average must stay a valid average: non-negative and
      // below the (untouched) worst case, keeping Definition 2.3 intact.
      scaled.cav[qi][k] = std::clamp<rt::Cycles>(
          static_cast<rt::Cycles>(std::llround(learned)), 0,
          scaled.cwc[qi][k]);
    }
  }
  tables_ = std::make_shared<const PeriodicSlackTables>(
      PeriodicSlackTables::build(scaled));
}

void AdaptiveController::start_cycle() {
  rebuild_tables();  // fold in everything learned during the last cycle
  i_ = 0;
  have_last_ = false;
}

Decision AdaptiveController::next(rt::Cycles t) {
  QC_EXPECT(!done(), "next() called on a finished cycle");
  const auto& levels = tables_->quality_levels();
  const std::size_t chosen_qi =
      best_quality(*tables_, i_, levels.size() - 1, t, soft_);
  last_k_ = i_ % profile_.order.size();
  last_qi_ = chosen_qi;
  have_last_ = true;
  const rt::ActionId action = tables_->action_at(i_);
  ++i_;
  return Decision{action, levels[chosen_qi]};
}

void AdaptiveController::observe(rt::Cycles actual_cost) {
  if (!have_last_ || actual_cost < 0) return;
  const rt::Cycles profiled = profile_.cav[last_qi_][last_k_];
  if (profiled <= 0) return;  // nothing to scale
  const double sample = std::clamp(
      static_cast<double>(actual_cost) / static_cast<double>(profiled),
      kMinCostRatio, kMaxCostRatio);
  ratios_[last_k_] = (1.0 - config_.ewma_alpha) * ratios_[last_k_] +
                     config_.ewma_alpha * sample;
}

}  // namespace qosctrl::qos
