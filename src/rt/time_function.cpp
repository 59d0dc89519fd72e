#include "rt/time_function.h"

#include <algorithm>

#include "util/check.h"

namespace qosctrl::rt {

Cycles TimeFunction::operator()(ActionId a) const {
  QC_EXPECT(a >= 0 && static_cast<std::size_t>(a) < values_.size(),
            "action id out of range for time function");
  return values_[static_cast<std::size_t>(a)];
}

void TimeFunction::set(ActionId a, Cycles v) {
  QC_EXPECT(a >= 0 && static_cast<std::size_t>(a) < values_.size(),
            "action id out of range for time function");
  QC_EXPECT(v >= 0, "times and deadlines are non-negative");
  values_[static_cast<std::size_t>(a)] = v;
}

Cycles min_slack_from(const ExecutionSequence& alpha, const TimeFunction& c,
                      const DeadlineFunction& d, Cycles t0) {
  Cycles worst = kNoDeadline;
  Cycles elapsed = t0;
  for (ActionId a : alpha) {
    elapsed = std::min(elapsed + c(a), kNoDeadline);
    const Cycles deadline = d(a);
    if (is_no_deadline(deadline)) continue;
    worst = std::min(worst, deadline - elapsed);
  }
  return worst;
}

Cycles min_slack(const ExecutionSequence& alpha, const TimeFunction& c,
                 const DeadlineFunction& d) {
  return min_slack_from(alpha, c, d, 0);
}

bool is_feasible(const ExecutionSequence& alpha, const TimeFunction& c,
                 const DeadlineFunction& d) {
  return min_slack(alpha, c, d) >= 0;
}

}  // namespace qosctrl::rt
