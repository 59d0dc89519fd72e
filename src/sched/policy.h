// Per-processor scheduling disciplines for the encoder farm.
//
// A SchedPolicy bundles the two faces of one scheduling discipline:
//
//  * the admission test — one-processor schedulability of a committed
//    sporadic task set under that discipline's run-queue semantics
//    (farm::ShardedControlPlane calls it for every placement
//    candidate);
//  * the run-queue semantics themselves — when a higher-priority
//    (earlier display deadline) arrival may displace the job in
//    service (farm's data plane consults it at every arrival).
//
// The two faces must agree: the admission test is only a guarantee if
// the data plane dispatches the way the test assumed.  Three
// disciplines are provided, all one processor-demand test (QPA,
// sched/qpa.h) that differs only in its blocking cap:
//
//   np         non-preemptive EDF: jobs run to completion; admission
//              pays the full blocking term (the farm's original
//              behavior, and the default).
//   preemptive fully preemptive EDF: every earlier-deadline arrival
//              preempts immediately; no blocking term, so tighter
//              mixes are admitted, at two context switches per
//              preemption.  Exact for sporadic task sets without
//              switch cost (Baruah, Rosier & Howell 1990).
//   quantum    quantum-sliced EDF: preemption waits for the next
//              multiple of a quantum from the running job's dispatch,
//              capping both preemption frequency and the blocking a
//              tight arrival can suffer: min(C_j, quantum).
//
// Preemption is not free.  Each preemption costs two context
// switches — switching the preempted job out and, later, back in —
// and every preemption is caused by exactly one arriving
// higher-priority job.  The charge is preemption-count aware: a job
// can preempt (or, under quantum slicing, trigger a deferred
// preemption of) a running job only if it arrived after that job's
// release with a strictly earlier absolute deadline, which forces
// D_preemptor < D_preempted <= max_i D_i.  Jobs of the tasks whose
// relative deadline equals the set's maximum therefore never cause a
// preemption, and a set of equal-deadline streams never preempts at
// all — so only tasks with D_i < max_j D_j are inflated by
// 2 * context_switch per job.  Every data-plane preemption (see
// preemption_at() in farm/run_queue.cpp, which requires a strictly
// earlier deadline) is paid for by its inflated trigger.  The farm's
// data plane charges the same per-switch cost on its simulated
// processors (platform/cost_model.h calibrates the default).
//
// With equal context-switch cost the admissible sets are nested:
//
//   np-EDF admissible  ⊆  quantum-EDF admissible  ⊆  preemptive-EDF
//   admissible
//
// because the blocking term only shrinks left to right while demand
// and caps stay identical.
#pragma once

#include <vector>

#include "sched/np_edf.h"

namespace qosctrl::sched {

enum class PolicyKind {
  kNonPreemptiveEdf,  ///< run to completion ("np")
  kPreemptiveEdf,     ///< preempt on every earlier-deadline arrival
  kQuantumEdf,        ///< preempt only at quantum boundaries
};

/// Short stable name ("np", "preemptive", "quantum") — used by the
/// CLI, the JSON/CSV reports, and the CI bench variants.
const char* policy_name(PolicyKind kind);

/// Inverse of policy_name; false (out untouched) on unknown names.
bool parse_policy_name(const char* name, PolicyKind* out);

struct PolicyParams {
  PolicyKind kind = PolicyKind::kNonPreemptiveEdf;
  /// Cycles one context switch costs.  The data plane charges it on
  /// every switch-out and switch-in; the admission test inflates the
  /// committed costs of preemption-capable tasks by 2x it
  /// (inflate_context_switch).  Ignored by kNonPreemptiveEdf, which
  /// never switches mid-job.
  rt::Cycles context_switch_cost = 0;
  /// kQuantumEdf only: preemption boundary spacing (> 0).
  rt::Cycles quantum = 0;
};

/// preemption_point result meaning "this discipline never preempts".
inline constexpr rt::Cycles kNeverPreempts = rt::kNoDeadline;

/// The preemption-count-aware overhead charge (file comment): tasks
/// whose relative deadline is strictly below the set's maximum gain
/// 2 * context_switch cycles of cost; the max-deadline tasks — which
/// can never trigger a preemption — ride free.  Identity when
/// context_switch == 0 or fewer than two distinct deadlines exist.
std::vector<NpTask> inflate_context_switch(const std::vector<NpTask>& tasks,
                                           rt::Cycles context_switch);

class SchedPolicy {
 public:
  /// Validates: context_switch_cost >= 0, quantum > 0 for kQuantumEdf.
  explicit SchedPolicy(const PolicyParams& params);

  rt::Cycles context_switch_cost() const {
    return params_.context_switch_cost;
  }

  /// Admission test: the committed task set is schedulable on one
  /// processor under this discipline (context-switch overhead
  /// included) — QPA with the discipline's blocking cap.  Sufficient,
  /// never optimistic.  The query carries the stats sink (the
  /// control-plane profiling hook behind the admission_* counters)
  /// and the warm-start fields — see DemandQuery in sched/np_edf.h
  /// for the busy_seed contract, which debug builds check by re-running
  /// every warm-seeded test from a cold seed.
  bool schedulable(const std::vector<NpTask>& tasks,
                   const DemandQuery& query = {}) const;

  /// Run-queue semantics: the earliest instant >= `now` at which the
  /// job whose current service segment started at `dispatched_at` may
  /// be preempted by a higher-priority arrival, or kNeverPreempts.
  rt::Cycles preemption_point(rt::Cycles dispatched_at,
                              rt::Cycles now) const;

 private:
  bool demand_test(const std::vector<NpTask>& tasks,
                   const DemandQuery& query) const;

  PolicyParams params_;
  rt::Cycles blocking_cap_ = 0;  ///< B(t) cap: +inf, 0 or the quantum
};

}  // namespace qosctrl::sched
