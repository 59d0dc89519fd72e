#include "sched/policy.h"

#include <algorithm>
#include <cstring>

#include "sched/qpa.h"
#include "util/check.h"

namespace qosctrl::sched {

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNonPreemptiveEdf:
      return "np";
    case PolicyKind::kPreemptiveEdf:
      return "preemptive";
    case PolicyKind::kQuantumEdf:
      return "quantum";
  }
  return "?";
}

bool parse_policy_name(const char* name, PolicyKind* out) {
  for (const PolicyKind kind :
       {PolicyKind::kNonPreemptiveEdf, PolicyKind::kPreemptiveEdf,
        PolicyKind::kQuantumEdf}) {
    if (std::strcmp(name, policy_name(kind)) == 0) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::vector<NpTask> inflate_context_switch(const std::vector<NpTask>& tasks,
                                           rt::Cycles context_switch) {
  QC_EXPECT(context_switch >= 0, "context switch cost must be >= 0");
  if (context_switch == 0 || tasks.empty()) return tasks;
  rt::Cycles max_deadline = tasks.front().deadline;
  for (const NpTask& t : tasks) {
    max_deadline = std::max(max_deadline, t.deadline);
  }
  std::vector<NpTask> inflated = tasks;
  for (NpTask& t : inflated) {
    // Only a strictly-earlier-relative-deadline job can cause a
    // preemption (switch-out + switch-in of the job it displaces);
    // max-deadline tasks never do, and an all-equal-deadline set
    // never preempts at all.
    if (t.deadline < max_deadline) t.cost += 2 * context_switch;
  }
  return inflated;
}

SchedPolicy::SchedPolicy(const PolicyParams& params) : params_(params) {
  QC_EXPECT(params.context_switch_cost >= 0,
            "context switch cost must be >= 0");
  switch (params.kind) {
    case PolicyKind::kNonPreemptiveEdf:
      blocking_cap_ = kUncappedBlocking;
      return;
    case PolicyKind::kPreemptiveEdf:
      blocking_cap_ = 0;
      return;
    case PolicyKind::kQuantumEdf:
      QC_EXPECT(params.quantum > 0,
                "quantum-sliced EDF needs a positive quantum");
      blocking_cap_ = params.quantum;
      return;
  }
  QC_EXPECT(false, "unknown scheduling policy kind");
}

bool SchedPolicy::schedulable(const std::vector<NpTask>& tasks,
                              const DemandQuery& query) const {
  // np never switches mid-job, and a zero switch cost inflates nothing.
  if (params_.kind == PolicyKind::kNonPreemptiveEdf ||
      params_.context_switch_cost == 0) {
    return demand_test(tasks, query);
  }
  return demand_test(
      inflate_context_switch(tasks, params_.context_switch_cost), query);
}

bool SchedPolicy::demand_test(const std::vector<NpTask>& tasks,
                              const DemandQuery& query) const {
  const bool ok = qpa_demand_schedulable(tasks, blocking_cap_, query);
  QC_DCHECK(query.busy_seed == 0 ||
                qpa_demand_schedulable(tasks, blocking_cap_) == ok,
            "warm busy seed changed a demand-test verdict");
  return ok;
}

rt::Cycles SchedPolicy::preemption_point(rt::Cycles dispatched_at,
                                         rt::Cycles now) const {
  switch (params_.kind) {
    case PolicyKind::kNonPreemptiveEdf:
      return kNeverPreempts;
    case PolicyKind::kPreemptiveEdf:
      return now;
    case PolicyKind::kQuantumEdf:
      break;
  }
  // Next multiple of the quantum from dispatch, at or after now; a
  // boundary at or past kNeverPreempts is never reached.
  const rt::Cycles q = params_.quantum;
  const rt::Cycles into = (now - dispatched_at) % q;
  if (into == 0) return now;
  return q - into >= kNeverPreempts - now ? kNeverPreempts : now + (q - into);
}

}  // namespace qosctrl::sched
