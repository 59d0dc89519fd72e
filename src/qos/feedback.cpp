#include "qos/feedback.h"

#include <algorithm>
#include <cmath>

#include "sched/edf.h"
#include "util/check.h"

namespace qosctrl::qos {
namespace {

constexpr double kKp = 6.0;  ///< proportional gain (in quality levels/unit)
constexpr double kKi = 1.5;  ///< integral gain
constexpr double kKd = 2.0;  ///< derivative gain
constexpr double kIntegralClamp = 2.0;  ///< anti-windup bound on the I term

}  // namespace

FeedbackController::FeedbackController(const rt::ParameterizedSystem& sys,
                                       rt::Cycles budget)
    : budget_(budget), levels_(sys.quality_levels()) {
  QC_EXPECT(budget > 0, "cycle budget must be positive");
  alpha_ = sched::edf_schedule(sys.graph(), sys.deadline_of(sys.qmin()));
  // Start mid-ladder, like a practitioner would.
  level_index_ = levels_.size() / 2;
}

void FeedbackController::start_cycle() {
  if (!first_cycle_) {
    // Close the loop on the finished cycle's utilization.
    const double utilization =
        static_cast<double>(cycle_cost_) / static_cast<double>(budget_);
    const double error = kFeedbackSetpoint - utilization;
    integral_ = std::clamp(integral_ + error, -kIntegralClamp,
                           kIntegralClamp);
    const double derivative = error - previous_error_;
    previous_error_ = error;
    const double correction =
        kKp * error + kKi * integral_ + kKd * derivative;
    const auto delta = static_cast<long>(std::lround(correction));
    const long next = std::clamp<long>(
        static_cast<long>(level_index_) + delta, 0,
        static_cast<long>(levels_.size()) - 1);
    level_index_ = static_cast<std::size_t>(next);
  }
  first_cycle_ = false;
  cycle_cost_ = 0;
  i_ = 0;
}

Decision FeedbackController::next(rt::Cycles t) {
  (void)t;  // the whole point: it does not react within the cycle
  QC_EXPECT(!done(), "next() called on a finished cycle");
  const rt::ActionId action = alpha_[i_];
  ++i_;
  return Decision{action, levels_[level_index_]};
}

void FeedbackController::observe(rt::Cycles actual_cost) {
  cycle_cost_ += actual_cost;
}

}  // namespace qosctrl::qos
