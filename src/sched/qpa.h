// Quick Processor-demand Analysis (QPA) — the farm's admission test:
// the processor-demand criterion of sched/np_edf.h, evaluated at a
// handful of points.  Every scheduling policy (sched/policy.h) runs it.
//
// The exact scan (edf_demand_schedulable, the test reference in
// tests/support/oracles.h)
// enumerates every absolute deadline in the scan
// horizon and tests demand at each.  Zhang & Burns (2009) observed
// that the test can instead iterate DOWNWARD from the top of the
// horizon: at any point t, every deadline p in (h(t), t] satisfies
// h(p) <= h(t) < p, so the whole range is verified in one evaluation
// and the iterate jumps straight to h(t).  The number of evaluations
// is typically a handful regardless of how many deadlines fall in the
// horizon — which is what makes admission a thousands-of-joins/sec
// hot path instead of an O(check points) scan per candidate.
//
// This implementation extends textbook QPA with the blocking term
// B(t) = max{ min(C_j, cap) : D_j > t } that the farm's
// limited-preemption policies need (np: cap = +inf, quantum:
// cap = quantum, preemptive: B = 0).  g(t) = h(t) + B(t) is NOT
// monotone (B is non-increasing), so the naive jump could leap past a
// failure point.  B(t) is, however, piecewise constant with
// breakpoints at the distinct relative deadlines: within one such
// interval the classic QPA jump argument holds verbatim with the
// interval's constant b, and when the iterate falls below the
// interval's lower edge the scan resumes from the largest absolute
// deadline below it.  See docs/admission.md for the full derivation.
//
// The starting point is additionally clipped by the Zhang–Burns
// interval bound extended with the blocking term: any failing t
// satisfies
//
//   t < max( max_i(D_i - T_i),
//            (sum_i (T_i - D_i) * U_i + Bmax) / (1 - U) )     (U < 1)
//
// so deadlines above that bound need never be visited.
//
// Decision-identical to edf_demand_schedulable over the same inputs
// (pinned by tests/sched/qpa_property_test.cpp) except on inputs that
// trip a conservative cap: the exact scan rejects once the horizon
// holds more than kEdfMaxCheckPoints deadlines, QPA rejects after
// kQpaMaxIterations evaluations — both fail safely, but on such
// pathological sets the two may disagree (one rejecting what the
// other proves schedulable).  Realistic farm loads sit far below
// either cap.
#pragma once

#include <vector>

#include "rt/types.h"
#include "sched/np_edf.h"

namespace qosctrl::sched {

/// QPA iteration cap: like the exact scan's check-point cap, the test
/// FAILS CONSERVATIVELY (rejects) if the downward iteration has not
/// finished after this many demand evaluations.  Each evaluation
/// strictly decreases the iterate, so this only triggers on sets with
/// astronomically many distinct deadline points below the bound.
inline constexpr long long kQpaMaxIterations = 1LL << 20;

/// QPA instance of the processor-demand criterion: same semantics,
/// same validation, and the same accept/reject decisions as
/// edf_demand_schedulable(tasks, max_blocking) — see the file comment
/// for the cap caveat.  `query.busy_seed` may warm-start the
/// busy-period fixpoint (see DemandQuery's contract);
/// `query.busy_out` receives the converged busy length.
bool qpa_demand_schedulable(const std::vector<NpTask>& tasks,
                            rt::Cycles max_blocking,
                            const DemandQuery& query = {});

}  // namespace qosctrl::sched
