#include "qos/controller.h"

#include <algorithm>

#include "qos/qual_const.h"
#include "sched/edf.h"
#include "util/check.h"

namespace qosctrl::qos {
namespace {

/// The Quality Manager's candidate range: indices [0, hi] where hi is
/// the top quality index, lowered by the smoothness policy relative to
/// the choice taken `stride` decisions ago.  Drops are never limited.
std::size_t smoothness_cap(std::size_t top_qi,
                           const SmoothnessPolicy& policy,
                           const std::vector<std::size_t>& history) {
  if (policy.max_step_up < 0) return top_qi;
  QC_EXPECT(policy.stride >= 1, "smoothness stride must be >= 1");
  const auto stride = static_cast<std::size_t>(policy.stride);
  if (history.size() < stride) return top_qi;
  const std::size_t anchor = history[history.size() - stride];
  return std::min(top_qi,
                  anchor + static_cast<std::size_t>(policy.max_step_up));
}

}  // namespace

// ---------------------------------------------------------------------------
// OnlineController

OnlineController::OnlineController(const rt::ParameterizedSystem& sys,
                                   SmoothnessPolicy smoothness, bool soft)
    : sys_(&sys), smoothness_(smoothness), soft_(soft) {
  QC_EXPECT(sys.validate().empty(),
            "parameterized system violates Definition 2.3");
  start_cycle();
}

void OnlineController::start_cycle() {
  i_ = 0;
  choice_history_.clear();
  theta_ = rt::QualityAssignment(sys_->num_actions(), sys_->qmin());
  alpha_ = sched::edf_schedule(sys_->graph(), sys_->deadline_of(theta_));
}

Decision OnlineController::next(rt::Cycles t) {
  QC_EXPECT(!done(), "next() called on a finished cycle");
  const auto& levels = sys_->quality_levels();
  const std::size_t hi =
      smoothness_cap(levels.size() - 1, smoothness_, choice_history_);

  // Quality Manager: maximal q meeting Qual_Const; Scheduler: Best_Sched
  // completion of the committed prefix under theta_q's deadlines.
  std::size_t chosen_qi = 0;  // fallback: qmin
  rt::QualityAssignment chosen_theta =
      theta_.override_suffix(alpha_, i_, levels[0]);
  rt::ExecutionSequence chosen_alpha =
      sched::best_sched(sys_->graph(), sys_->deadline_of(chosen_theta),
                        alpha_, i_);
  for (std::size_t qi = hi + 1; qi-- > 0;) {
    rt::QualityAssignment theta_q =
        theta_.override_suffix(alpha_, i_, levels[qi]);
    rt::ExecutionSequence alpha_q = sched::best_sched(
        sys_->graph(), sys_->deadline_of(theta_q), alpha_, i_);
    if (qual_const(*sys_, alpha_q, theta_q, t, i_, soft_)) {
      chosen_qi = qi;
      chosen_theta = std::move(theta_q);
      chosen_alpha = std::move(alpha_q);
      break;
    }
    if (qi == 0) break;  // keep the qmin fallback computed above
  }

  theta_ = std::move(chosen_theta);
  alpha_ = std::move(chosen_alpha);
  choice_history_.push_back(chosen_qi);
  const rt::ActionId action = alpha_[i_];
  ++i_;
  return Decision{action, levels[chosen_qi]};
}

// ---------------------------------------------------------------------------
// TableController

TableController::TableController(std::shared_ptr<const SlackTables> tables,
                                 SmoothnessPolicy smoothness, bool soft)
    : tables_(std::move(tables)), smoothness_(smoothness), soft_(soft) {
  QC_EXPECT(tables_ != nullptr, "tables must not be null");
}

void TableController::start_cycle() {
  i_ = 0;
  choice_history_.clear();
}

Decision TableController::next(rt::Cycles t) {
  QC_EXPECT(!done(), "next() called on a finished cycle");
  const auto& levels = tables_->quality_levels();
  const std::size_t hi =
      smoothness_cap(levels.size() - 1, smoothness_, choice_history_);

  const std::size_t chosen_qi = best_quality(*tables_, i_, hi, t, soft_);
  choice_history_.push_back(chosen_qi);
  const rt::ActionId action = tables_->schedule()[i_];
  ++i_;
  return Decision{action, levels[chosen_qi]};
}

// ---------------------------------------------------------------------------
// ConstantController

ConstantController::ConstantController(const rt::ParameterizedSystem& sys,
                                       rt::QualityLevel q)
    : q_(q) {
  QC_EXPECT(sys.has_quality(q), "quality level not in Q");
  alpha_ = sched::edf_schedule(sys.graph(), sys.deadline_of(q));
}

Decision ConstantController::next(rt::Cycles t) {
  (void)t;  // the baseline ignores elapsed time entirely
  QC_EXPECT(!done(), "next() called on a finished cycle");
  const rt::ActionId action = alpha_[i_];
  ++i_;
  return Decision{action, q_};
}

// ---------------------------------------------------------------------------
// DecimatedController

DecimatedController::DecimatedController(std::unique_ptr<Controller> inner,
                                         std::size_t period)
    : inner_(std::move(inner)), period_(period) {
  QC_EXPECT(inner_ != nullptr, "inner controller must not be null");
  QC_EXPECT(period_ >= 1, "decimation period must be >= 1");
}

void DecimatedController::start_cycle() {
  inner_->start_cycle();
  i_ = 0;
}

Decision DecimatedController::next(rt::Cycles t) {
  QC_EXPECT(!done(), "next() called on a finished cycle");
  Decision d = inner_->next(t);
  // Between decisions the inner quality is discarded and the held one
  // dispatched (this is exactly what makes coarse-grain control slow
  // to react); the action stays the inner controller's own.
  if (i_ % period_ == 0) held_quality_ = d.quality;
  ++i_;
  d.quality = held_quality_;
  return d;
}

}  // namespace qosctrl::qos
