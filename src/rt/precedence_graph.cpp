#include "rt/precedence_graph.h"

#include <algorithm>
#include <queue>

#include "util/check.h"

namespace qosctrl::rt {

ActionId PrecedenceGraph::add_action(std::string name) {
  names_.push_back(std::move(name));
  succ_.emplace_back();
  pred_.emplace_back();
  return static_cast<ActionId>(names_.size() - 1);
}

void PrecedenceGraph::add_edge(ActionId a, ActionId b) {
  QC_EXPECT(a >= 0 && static_cast<std::size_t>(a) < names_.size(),
            "edge source does not exist");
  QC_EXPECT(b >= 0 && static_cast<std::size_t>(b) < names_.size(),
            "edge target does not exist");
  QC_EXPECT(a != b, "self-loop is not a valid precedence");
  auto& out = succ_[static_cast<std::size_t>(a)];
  if (std::find(out.begin(), out.end(), b) != out.end()) return;
  out.push_back(b);
  pred_[static_cast<std::size_t>(b)].push_back(a);
}

const std::string& PrecedenceGraph::name(ActionId a) const {
  QC_EXPECT(a >= 0 && static_cast<std::size_t>(a) < names_.size(),
            "action id out of range");
  return names_[static_cast<std::size_t>(a)];
}

const std::vector<ActionId>& PrecedenceGraph::successors(ActionId a) const {
  QC_EXPECT(a >= 0 && static_cast<std::size_t>(a) < succ_.size(),
            "action id out of range");
  return succ_[static_cast<std::size_t>(a)];
}

const std::vector<ActionId>& PrecedenceGraph::predecessors(ActionId a) const {
  QC_EXPECT(a >= 0 && static_cast<std::size_t>(a) < pred_.size(),
            "action id out of range");
  return pred_[static_cast<std::size_t>(a)];
}

bool PrecedenceGraph::is_acyclic() const {
  return topological_order().size() == names_.size();
}

std::vector<ActionId> PrecedenceGraph::topological_order() const {
  const std::size_t n = names_.size();
  std::vector<int> in_degree(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    for (ActionId b : succ_[a]) in_degree[static_cast<std::size_t>(b)]++;
  }
  // Min-heap on id for a deterministic order.
  std::priority_queue<ActionId, std::vector<ActionId>, std::greater<>> ready;
  for (std::size_t a = 0; a < n; ++a) {
    if (in_degree[a] == 0) ready.push(static_cast<ActionId>(a));
  }
  std::vector<ActionId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const ActionId a = ready.top();
    ready.pop();
    order.push_back(a);
    for (ActionId b : succ_[static_cast<std::size_t>(a)]) {
      if (--in_degree[static_cast<std::size_t>(b)] == 0) ready.push(b);
    }
  }
  return order;  // shorter than n iff the graph has a cycle
}

bool PrecedenceGraph::is_execution_sequence(
    const std::vector<ActionId>& seq) const {
  const std::size_t n = names_.size();
  std::vector<bool> done(n, false);
  for (ActionId a : seq) {
    if (a < 0 || static_cast<std::size_t>(a) >= n) return false;
    if (done[static_cast<std::size_t>(a)]) return false;  // not distinct
    for (ActionId p : pred_[static_cast<std::size_t>(a)]) {
      if (!done[static_cast<std::size_t>(p)]) return false;
    }
    done[static_cast<std::size_t>(a)] = true;
  }
  return true;
}

bool PrecedenceGraph::is_schedule(const std::vector<ActionId>& seq) const {
  return seq.size() == names_.size() && is_execution_sequence(seq);
}

PrecedenceGraph PrecedenceGraph::unroll(int n_copies) const {
  QC_EXPECT(n_copies >= 1, "unroll requires at least one copy");
  PrecedenceGraph out;
  const std::size_t m = names_.size();
  for (int j = 0; j < n_copies; ++j) {
    for (std::size_t k = 0; k < m; ++k) {
      out.add_action(names_[k] + "#" + std::to_string(j));
    }
  }
  std::vector<ActionId> sinks;
  std::vector<ActionId> sources;
  for (std::size_t k = 0; k < m; ++k) {
    if (succ_[k].empty()) sinks.push_back(static_cast<ActionId>(k));
    if (pred_[k].empty()) sources.push_back(static_cast<ActionId>(k));
  }
  for (int j = 0; j < n_copies; ++j) {
    const ActionId base = static_cast<ActionId>(j * static_cast<int>(m));
    for (std::size_t k = 0; k < m; ++k) {
      for (ActionId b : succ_[k]) {
        out.add_edge(base + static_cast<ActionId>(k), base + b);
      }
    }
    if (j + 1 < n_copies) {
      const ActionId next = base + static_cast<ActionId>(m);
      for (ActionId s : sinks) {
        for (ActionId t : sources) out.add_edge(base + s, next + t);
      }
    }
  }
  return out;
}

}  // namespace qosctrl::rt
