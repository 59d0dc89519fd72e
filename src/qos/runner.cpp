#include "qos/runner.h"

#include "util/check.h"

namespace qosctrl::qos {

double CycleTrace::mean_quality() const {
  if (steps.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& s : steps) acc += static_cast<double>(s.quality);
  return acc / static_cast<double>(steps.size());
}

double CycleTrace::budget_utilization(rt::Cycles budget) const {
  if (budget <= 0) return 0.0;
  return static_cast<double>(total_cycles) / static_cast<double>(budget);
}

CycleTrace run_cycle(const rt::ParameterizedSystem& sys,
                     Controller& controller, const CostSource& source,
                     rt::Cycles t0) {
  QC_EXPECT(static_cast<bool>(source), "cost source must be callable");
  CycleTrace trace;
  static_cast<CycleTotals&>(trace) = run_cycle(
      sys, controller, source,
      [&trace](const StepTrace& step) { trace.steps.push_back(step); }, t0);
  return trace;
}

}  // namespace qosctrl::qos
