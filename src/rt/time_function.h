// Execution-time and deadline functions over actions, and their
// extension to execution sequences (paper Definitions 2.1 and 2.2).
//
// A TimeFunction is C : A -> R+ u {+inf}; a DeadlineFunction is
// D : A -> R+ u {+inf}.  Both are dense vectors indexed by ActionId.
// Feasibility of a schedule alpha is min(D(alpha) - cumsum(C(alpha))) >= 0.
#pragma once

#include <vector>

#include "rt/types.h"

namespace qosctrl::rt {

/// Sequence of actions (the paper's alpha).  Indexing in the paper is
/// 1-based; this library is 0-based throughout.
using ExecutionSequence = std::vector<ActionId>;

/// Dense map ActionId -> Cycles used both for execution times and for
/// deadlines.
class TimeFunction {
 public:
  TimeFunction() = default;

  /// All actions get `fill` (defaults to 0 cycles).
  explicit TimeFunction(std::size_t num_actions, Cycles fill = 0)
      : values_(num_actions, fill) {}

  /// From explicit per-action values.
  explicit TimeFunction(std::vector<Cycles> values)
      : values_(std::move(values)) {}

  std::size_t size() const { return values_.size(); }

  Cycles operator()(ActionId a) const;
  void set(ActionId a, Cycles v);

  /// The per-action values, indexed by ActionId.
  const std::vector<Cycles>& values() const { return values_; }

 private:
  std::vector<Cycles> values_;
};

/// Deadlines are plain time functions; the alias documents intent.
using DeadlineFunction = TimeFunction;

/// min(D(alpha) - cumsum(C(alpha))): the worst slack over the sequence.
/// Positions with D = +inf contribute no constraint.  Empty sequences
/// have infinite slack (returns kNoDeadline).
Cycles min_slack(const ExecutionSequence& alpha, const TimeFunction& c,
                 const DeadlineFunction& d);

/// Same, but with an initial elapsed time `t0` added before alpha(0)
/// (used for suffix feasibility from a mid-cycle state).
Cycles min_slack_from(const ExecutionSequence& alpha, const TimeFunction& c,
                      const DeadlineFunction& d, Cycles t0);

/// Definition 2.2: alpha is feasible w.r.t. C and D.
bool is_feasible(const ExecutionSequence& alpha, const TimeFunction& c,
                 const DeadlineFunction& d);

}  // namespace qosctrl::rt
