// Processor-level schedulability for the encoder farm: sporadic EDF
// task sets on one processor, with the run-to-completion (blocking)
// term as a parameter.
//
// The farm's admission controller reserves each stream a per-frame
// service budget C (the budget its slack tables are paced over), a
// relative display deadline D = K * P, and a minimum inter-arrival
// P.  Frames are dispatched in EDF order of their display deadlines,
// so the committed worst-case load of a processor is exactly a
// sporadic task set — and admission is a schedulability test over it.
//
// The test is the classic processor-demand criterion extended with a
// blocking term for limited-preemption dispatching (George, Rivierre
// & Spuri 1996):
//
//   for every check point t in the synchronous busy period:
//     B(t)  +  sum_i dbf_i(t)  <=  t
//   dbf_i(t) = (floor((t - D_i) / T_i) + 1) * C_i     for t >= D_i
//
// where the blocking term B(t) depends on how the run queue may defer
// a higher-priority arrival:
//   * non-preemptive EDF:  B(t) = max{ C_j : D_j > t }  (a just-
//     started later-deadline job runs to completion);
//   * quantum-sliced EDF:  B(t) = min(max{ C_j : D_j > t }, quantum)
//     (preemption waits at most one quantum boundary);
//   * fully preemptive EDF: B(t) = 0 (the exact demand test).
// edf_demand_schedulable evaluates the criterion by enumerating every
// check point.  It is the test reference: the farm's admission runs
// the decision-identical QPA (sched/qpa.h) through the scheduling
// policies of sched/policy.h, which pick the blocking cap and add
// context-switch overhead inflation.
//
// Sufficient (never admits an unschedulable set); exact up to the
// blocking term.
#pragma once

#include <vector>

#include "rt/types.h"

namespace qosctrl::sched {

/// One sporadic task (a farm stream's committed load).
struct NpTask {
  rt::Cycles cost = 0;      ///< worst-case execution per job, C
  rt::Cycles deadline = 0;  ///< relative deadline, D
  rt::Cycles period = 0;    ///< minimum inter-arrival, T
};

// ---------------------------------------------------------------------------
// Scan caps — the explicit conservatism contract.
//
// On pathological inputs (utilization ~ 1 with huge hyperperiods) the
// demand scan would be disproportionate to an admission decision, so
// it is capped and the test FAILS CONSERVATIVELY (rejects a possibly
// schedulable set — always safe, never the other way around):
//  * the synchronous busy-period fixpoint iteration gives up after
//    kEdfMaxBusyIterations steps without converging;
//  * the deadline check-point enumeration gives up once more than
//    kEdfMaxCheckPoints points fall inside the scan horizon.
// Both caps apply identically to every test in this family (np,
// quantum, preemptive), so the admissibility orderings between the
// policies hold even on capped inputs.  Tests pin the conservative-
// fail behavior; loosening either cap is an API change.

/// Busy-period fixpoint iteration cap (see above).
inline constexpr int kEdfMaxBusyIterations = 256;

/// Deadline check-point count cap (see above).
inline constexpr std::size_t kEdfMaxCheckPoints = std::size_t{1} << 16;

/// Blocking cap meaning "uncapped" (run to completion): any value at
/// least as large as every task cost behaves identically; the
/// +inf-deadline sentinel is conveniently that.
inline constexpr rt::Cycles kUncappedBlocking = rt::kNoDeadline;

/// Total utilization sum(C_i / T_i).
double np_utilization(const std::vector<NpTask>& tasks);

/// Request-bound function: work demanded by jobs of all tasks
/// released in a window of length w after a synchronous release.
/// Shared by the exact scan's and QPA's busy-period fixpoints.
rt::Cycles edf_request_bound(const std::vector<NpTask>& tasks,
                             rt::Cycles w);

/// Work accounting for one or more QPA demand tests (sched/qpa.h) —
/// how much the control plane actually computed to reach its admission
/// verdicts.  Accumulated (never reset) when a non-null pointer is
/// passed, so one instance can meter a whole admission session.
struct EdfScanStats {
  long long demand_tests = 0;     ///< demand tests run
  long long busy_iterations = 0;  ///< busy-period fixpoint steps
  long long qpa_points = 0;       ///< QPA demand evaluations h(t)
};

/// Per-call knobs for a QPA demand test (sched/qpa.h).
///
/// `busy_seed` warm-starts the busy-period fixpoint.  Contract: the
/// seed must be a lower bound on the set's true synchronous
/// busy-period length — any previously computed busy length of a
/// SUBSET of the tasks qualifies (adding tasks or growing costs only
/// lengthens the busy period), 0 always does.  `busy_out`, when
/// non-null, receives the converged busy length so callers can cache
/// it as a future seed.
struct DemandQuery {
  EdfScanStats* stats = nullptr;
  rt::Cycles busy_seed = 0;
  rt::Cycles* busy_out = nullptr;
};

/// Processor-demand criterion with the blocking term capped at
/// `max_blocking` (see the file comment): 0 = fully preemptive EDF,
/// kUncappedBlocking = non-preemptive EDF, a quantum length between.
/// The empty set is schedulable.  Requires cost >= 0, period > 0 for
/// every task; a task with cost > deadline is trivially
/// unschedulable.  Subject to the scan caps above.  The reference the
/// QPA fast path is checked against.
bool edf_demand_schedulable(const std::vector<NpTask>& tasks,
                            rt::Cycles max_blocking);

}  // namespace qosctrl::sched
