// The prototype tool of Figure 4.
//
// Inputs (paper Section 3):
//   * the precedence graph G of one cycle-body iteration (a macroblock
//     treatment for the encoder) and its iteration parameter N,
//   * tables of Cav / Cwc for the actions of G at each quality level,
//   * the deadline assignment (whose *order* must be independent of the
//     quality level — we enforce quality-independent deadlines).
//
// Outputs:
//   * the unrolled parameterized real-time system,
//   * the static EDF schedule alpha and the precomputed tables used by
//     the generic controller (qos::SlackTables),
//   * optionally, a standalone C source file embedding schedule +
//     tables + the generic quality-manager step function — the "code
//     instrumentation" artifact the paper's compiler links against the
//     application actions.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qos/periodic_tables.h"
#include "qos/slack_tables.h"
#include "rt/parameterized_system.h"

namespace qosctrl::toolgen {

/// Per-action, per-quality execution time estimates (from timing
/// analysis / profiling, paper Figure 5).
struct TimeEntry {
  rt::Cycles average = 0;
  rt::Cycles worst_case = 0;
};

/// Tool input: body graph + iteration count + tables + deadlines.
struct ToolInput {
  rt::PrecedenceGraph body;
  int iterations = 1;  ///< the paper's N (macroblocks per frame)
  std::vector<rt::QualityLevel> qualities;

  /// times[qi][a] for quality index qi and body action a.
  std::vector<std::vector<TimeEntry>> times;

  /// Deadline of body action `a` in iteration `copy` (absolute, from
  /// cycle start).  Return rt::kNoDeadline for unconstrained actions.
  std::function<rt::Cycles(int copy, rt::ActionId a)> deadline;
};

/// Tool output: the compiled controller data.
struct ToolOutput {
  std::shared_ptr<rt::ParameterizedSystem> system;        ///< unrolled
  std::shared_ptr<const qos::SlackTables> tables;         ///< alpha + slacks
};

/// Body-level description for the compact periodic representation:
/// the body EDF order plus per-order-position cost rows.  Requires
/// budget divisible by input.iterations (so every iteration gets the
/// same integer period) — the restriction under which the compact
/// closed forms are exact.
qos::PeriodicBody make_periodic_body(const ToolInput& input,
                                     rt::Cycles budget);

/// Why `input` is past the range of the unrolled model, or "" when it
/// is not: more than rt::ActionId's range of unrolled actions
/// (iterations x body actions), or a cycle whose worst case at the top
/// quality level (iterations x the body's summed Cwc) exceeds
/// rt::kNoDeadline, so the slack sums would overflow.  Requires a
/// non-empty body and one time row per quality level.
std::string range_error(const ToolInput& input);

/// Runs the tool end to end.  Aborts (QC_EXPECT) on invalid input:
/// non-DAG body, an input past range_error's limits, Cav > Cwc, times
/// decreasing in q, or an unschedulable (Cwc_qmin, Dqmin)
/// configuration — the Problem's precondition.
ToolOutput run_tool(const ToolInput& input);

/// Convenience: equal share of `budget` cycles per iteration; every
/// action of iteration j has deadline floor((j+1) * budget / N),
/// computed without overflow.  This is the natural per-macroblock
/// pacing for a frame-level budget.  Requires 0 < budget <
/// rt::kNoDeadline (a larger deadline would read as none).
std::function<rt::Cycles(int, rt::ActionId)> evenly_paced_deadlines(
    rt::Cycles budget, int iterations);

}  // namespace qosctrl::toolgen
