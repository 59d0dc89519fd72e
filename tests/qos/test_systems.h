// Shared generators of random parameterized real-time systems for the
// qos test suite.  Generated systems always satisfy Definition 2.3's
// side conditions and (optionally) the Problem precondition: feasible
// at (Cwc_qmin, Dqmin).
#pragma once

#include <vector>

#include "rt/parameterized_system.h"
#include "sched/edf.h"
#include "toolgen/tool.h"
#include "util/rng.h"

namespace qosctrl::qos::testing {

struct RandomSystemOptions {
  int min_actions = 3;
  int max_actions = 10;
  int num_levels = 4;
  double edge_probability = 0.25;
  /// Deadlines are drawn so that the qmin/WCET EDF schedule is feasible
  /// with this multiplicative headroom (>= 1.0 guarantees the Problem
  /// precondition).
  double deadline_headroom = 1.3;
  bool quality_independent_deadlines = true;
};

/// Draws a random system satisfying Definition 2.3.  With the default
/// options it also satisfies the Problem precondition *for the plain
/// EDF order the controller uses* (see random_system below, which
/// retries until that holds).
inline rt::ParameterizedSystem random_system_once(
    util::Rng& rng, const RandomSystemOptions& o) {
  const int n =
      static_cast<int>(rng.uniform_i64(o.min_actions, o.max_actions));
  rt::PrecedenceGraph g;
  for (int i = 0; i < n; ++i) g.add_action("a" + std::to_string(i));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.chance(o.edge_probability)) g.add_edge(i, j);
    }
  }
  std::vector<rt::QualityLevel> levels;
  for (int q = 0; q < o.num_levels; ++q) levels.push_back(q);
  rt::ParameterizedSystem sys(std::move(g), levels);

  // Monotone times: start from a base and accumulate increments.
  for (rt::ActionId a = 0; a < n; ++a) {
    rt::Cycles av = rng.uniform_i64(1, 40);
    rt::Cycles wc = av + rng.uniform_i64(0, 60);
    for (int q = 0; q < o.num_levels; ++q) {
      sys.set_times(q, a, av, wc);
      av += rng.uniform_i64(0, 30);
      wc = std::max(wc + rng.uniform_i64(0, 80), av);
    }
  }

  // Deadlines paced along the qmin/WCET EDF schedule with headroom.
  const rt::TimeFunction cwc0 = sys.cwc_of(sys.qmin());
  rt::DeadlineFunction uniform(sys.num_actions(), rt::kNoDeadline);
  const auto alpha = sched::edf_schedule(sys.graph(), uniform);
  rt::Cycles elapsed = 0;
  for (rt::ActionId a : alpha) {
    elapsed += cwc0(a);
    const auto padded = static_cast<rt::Cycles>(
        static_cast<double>(elapsed) * o.deadline_headroom) +
        rng.uniform_i64(0, 20);
    if (o.quality_independent_deadlines) {
      sys.set_deadline_all_q(a, padded);
    } else {
      for (int q = 0; q < o.num_levels; ++q) {
        sys.set_deadline(q, a, padded + 5 * q);
      }
    }
  }
  return sys;
}

/// Like random_system_once, but retries until the plain-EDF schedule at
/// (Cwc_qmin, Dqmin) is feasible — the invariant the controller's
/// safety argument starts from (deadline pads can otherwise create
/// Lawler-style inversions where naive EDF fails).
inline rt::ParameterizedSystem random_system(util::Rng& rng,
                                             const RandomSystemOptions& o) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    rt::ParameterizedSystem sys = random_system_once(rng, o);
    const auto alpha =
        sched::edf_schedule(sys.graph(), sys.deadline_of(sys.qmin()));
    if (rt::is_feasible(alpha, sys.cwc_of(sys.qmin()),
                        sys.deadline_of(sys.qmin()))) {
      return sys;
    }
  }
  // Statistically unreachable; keep the type system happy.
  return random_system_once(rng, o);
}

/// A random 2..6-action body of `iterations` copies with 1..3 quality
/// levels and Cav/Cwc non-decreasing in q (deadlines left unset).
inline toolgen::ToolInput random_body_input(util::Rng& rng, int iterations) {
  toolgen::ToolInput in;
  const int m = static_cast<int>(rng.uniform_i64(2, 7));
  for (int i = 0; i < m; ++i) in.body.add_action("b" + std::to_string(i));
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      if (rng.chance(0.3)) in.body.add_edge(i, j);
    }
  }
  in.iterations = iterations;
  const int nq = static_cast<int>(rng.uniform_i64(1, 4));
  for (int q = 0; q < nq; ++q) in.qualities.push_back(q);
  in.times.resize(static_cast<std::size_t>(nq));
  for (int a = 0; a < m; ++a) {
    rt::Cycles av = rng.uniform_i64(1, 30);
    rt::Cycles wc = av + rng.uniform_i64(0, 40);
    for (int q = 0; q < nq; ++q) {
      in.times[static_cast<std::size_t>(q)].resize(static_cast<std::size_t>(m));
      in.times[static_cast<std::size_t>(q)][static_cast<std::size_t>(a)] =
          toolgen::TimeEntry{av, wc};
      av += rng.uniform_i64(0, 20);
      wc = std::max(wc + rng.uniform_i64(0, 40), av);
    }
  }
  return in;
}

/// Per-iteration period large enough for qmin WCET feasibility.
inline rt::Cycles safe_period(const toolgen::ToolInput& in, util::Rng& rng) {
  rt::Cycles wc_total = 0;
  for (const auto& e : in.times[0]) wc_total += e.worst_case;
  return wc_total + rng.uniform_i64(0, 50);
}

}  // namespace qosctrl::qos::testing
