// Cycle runner: executes one full cycle of a controlled system against
// an *actual* execution-time source.
//
// This is the composition of Figure 1 — System + Controller — with the
// system abstracted as a cost callback, and the only code that drives a
// Controller through a cycle.  Tests use adversarial cost callbacks (any
// C <= Cwc_theta) to check Proposition 2.1; enc::FrameEncoder runs every
// frame through it, with a cost source that does the action's pixel
// work and samples the platform cost model.
#pragma once

#include <concepts>
#include <functional>
#include <vector>

#include "qos/controller.h"
#include "rt/parameterized_system.h"
#include "util/check.h"

namespace qosctrl::qos {

/// Actual execution time of `action` when run at `quality`.  The safety
/// contract requires the returned value to be <= Cwc_quality(action).
using CostSource =
    std::function<rt::Cycles(rt::ActionId action, rt::QualityLevel quality)>;

/// One executed step of a cycle.
struct StepTrace {
  rt::ActionId action = -1;
  rt::QualityLevel quality = 0;
  rt::Cycles start = 0;     ///< elapsed cycle time when the action began
  rt::Cycles cost = 0;      ///< actual execution time
  rt::Cycles deadline = 0;  ///< D_theta(action) at the chosen quality
  bool missed = false;      ///< start + cost > deadline
};

/// Totals of one cycle run to completion.
struct CycleTotals {
  rt::Cycles total_cycles = 0;  ///< sum of step costs (excludes `t0`)
  int deadline_misses = 0;
};

/// A cycle's totals plus every step, for tests, examples and the VCD
/// writer.
struct CycleTrace : CycleTotals {
  std::vector<StepTrace> steps;

  /// Mean chosen quality level over all steps (0 for an empty trace).
  double mean_quality() const;

  /// The paper's optimality metric: total time / last deadline, i.e.
  /// utilization of the cycle's time budget.
  double budget_utilization(rt::Cycles budget) const;
};

/// Runs a full cycle: repeatedly asks the controller for a decision,
/// obtains the actual cost from `source` (a CostSource signature),
/// advances time, and hands each step to `on_step` right after it ran.
/// Time starts at `t0` (a late start shrinks the budget, which is how
/// the pipeline models buffer occupancy).  `sys` supplies deadlines for
/// miss detection.  A template, so the encoder's per-action callbacks
/// inline into the loop.
template <class Source, class OnStep>
  requires std::invocable<OnStep&, const StepTrace&>
CycleTotals run_cycle(const rt::ParameterizedSystem& sys,
                      Controller& controller, Source&& source,
                      OnStep&& on_step, rt::Cycles t0 = 0) {
  controller.start_cycle();
  CycleTotals totals;
  rt::Cycles t = t0;
  while (!controller.done()) {
    const Decision d = controller.next(t);
    const rt::Cycles cost = source(d.action, d.quality);
    QC_EXPECT(cost >= 0, "actual execution times are non-negative");
    controller.observe(cost);
    const rt::Cycles deadline = sys.deadline(d.quality, d.action);
    const bool missed = !rt::is_no_deadline(deadline) && t + cost > deadline;
    if (missed) ++totals.deadline_misses;
    on_step(StepTrace{d.action, d.quality, t, cost, deadline, missed});
    t += cost;
  }
  totals.total_cycles = t - t0;
  return totals;
}

/// run_cycle that records every step.
CycleTrace run_cycle(const rt::ParameterizedSystem& sys,
                     Controller& controller, const CostSource& source,
                     rt::Cycles t0 = 0);

}  // namespace qosctrl::qos
