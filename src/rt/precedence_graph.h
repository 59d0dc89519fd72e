// Precedence graph G = (A, ->) of an application's actions
// (paper Definition 2.1).
//
// Actions are C-function-like atomic units identified by dense ids.
// The graph must be a DAG; `validate()` checks acyclicity.  A cyclic
// dataflow application (e.g. the per-macroblock body of the MPEG-4
// encoder) is modelled as a body graph plus `unroll(N)`, which chains
// N copies sequentially — copy j+1 may start only after copy j is
// completely finished, matching a single-threaded raster-scan encoder.
#pragma once

#include <string>
#include <vector>

#include "rt/types.h"

namespace qosctrl::rt {

/// Directed acyclic graph over named actions.
class PrecedenceGraph {
 public:
  /// Adds an action with the given display name; returns its id.
  ActionId add_action(std::string name);

  /// Adds the precedence a -> b (b may start only after a completes).
  /// Duplicate edges are ignored.  Requires both ids to exist.
  void add_edge(ActionId a, ActionId b);

  std::size_t num_actions() const { return names_.size(); }
  const std::string& name(ActionId a) const;

  const std::vector<ActionId>& successors(ActionId a) const;
  const std::vector<ActionId>& predecessors(ActionId a) const;

  /// True when the graph contains no directed cycle.
  bool is_acyclic() const;

  /// A topological order (smallest-id-first among ready actions).
  /// Requires is_acyclic().
  std::vector<ActionId> topological_order() const;

  /// True when `seq` is an execution sequence of this graph containing
  /// exactly the actions of A once each, in a precedence-compatible
  /// order (paper Definition 2.2's "schedule" well-formedness).
  bool is_schedule(const std::vector<ActionId>& seq) const;

  /// True when `seq` is a (possibly partial) execution sequence: distinct
  /// actions, and every prefix is predecessor-closed.
  bool is_execution_sequence(const std::vector<ActionId>& seq) const;

  /// Sequential unrolling: N copies of this graph; every sink of copy j
  /// precedes every source of copy j+1.  Action k of copy j receives id
  /// j*num_actions()+k and name "name#j".  Requires n_copies >= 1.
  PrecedenceGraph unroll(int n_copies) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<ActionId>> succ_;
  std::vector<std::vector<ActionId>> pred_;
};

}  // namespace qosctrl::rt
