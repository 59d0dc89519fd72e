#include "sched/policy.h"

#include <cstring>

#include "sched/qpa.h"
#include "util/check.h"

namespace qosctrl::sched {
namespace {

class NonPreemptiveEdfPolicy final : public SchedPolicy {
 public:
  explicit NonPreemptiveEdfPolicy(const PolicyParams& params)
      : SchedPolicy(params) {}
  PolicyKind kind() const override { return PolicyKind::kNonPreemptiveEdf; }
  bool schedulable(const std::vector<NpTask>& tasks,
                   const DemandQuery& query) const override {
    return demand_schedulable(tasks, kUncappedBlocking,
                              params_.demand_algo, query);
  }
  rt::Cycles preemption_point(rt::Cycles, rt::Cycles) const override {
    return kNeverPreempts;
  }
};

class PreemptiveEdfPolicy final : public SchedPolicy {
 public:
  explicit PreemptiveEdfPolicy(const PolicyParams& params)
      : SchedPolicy(params) {}
  PolicyKind kind() const override { return PolicyKind::kPreemptiveEdf; }
  bool schedulable(const std::vector<NpTask>& tasks,
                   const DemandQuery& query) const override {
    return demand_schedulable(
        inflate_context_switch(tasks, params_.context_switch_cost), 0,
        params_.demand_algo, query);
  }
  rt::Cycles preemption_point(rt::Cycles, rt::Cycles now) const override {
    return now;
  }
};

class QuantumEdfPolicy final : public SchedPolicy {
 public:
  explicit QuantumEdfPolicy(const PolicyParams& params)
      : SchedPolicy(params) {}
  PolicyKind kind() const override { return PolicyKind::kQuantumEdf; }
  bool schedulable(const std::vector<NpTask>& tasks,
                   const DemandQuery& query) const override {
    return demand_schedulable(
        inflate_context_switch(tasks, params_.context_switch_cost),
        params_.quantum, params_.demand_algo, query);
  }
  rt::Cycles preemption_point(rt::Cycles dispatched_at,
                              rt::Cycles now) const override {
    // Next multiple of the quantum from dispatch, at or after now; a
    // boundary at or past kNeverPreempts is never reached.
    const rt::Cycles q = params_.quantum;
    const rt::Cycles into = (now - dispatched_at) % q;
    if (into == 0) return now;
    return q - into >= kNeverPreempts - now ? kNeverPreempts
                                            : now + (q - into);
  }
};

}  // namespace

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

const char* demand_algo_name(DemandAlgo algo) {
  switch (algo) {
    case DemandAlgo::kExactScan:
      return "exact";
    case DemandAlgo::kQpa:
      return "qpa";
  }
  return "?";
}

bool parse_demand_algo_name(const char* name, DemandAlgo* out) {
  for (const DemandAlgo algo :
       {DemandAlgo::kExactScan, DemandAlgo::kQpa}) {
    if (std::strcmp(name, demand_algo_name(algo)) == 0) {
      *out = algo;
      return true;
    }
  }
  return false;
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

std::unique_ptr<SchedPolicy> make_policy(const PolicyParams& params) {
  QC_EXPECT(params.context_switch_cost >= 0,
            "context switch cost must be >= 0");
  switch (params.kind) {
    case PolicyKind::kNonPreemptiveEdf:
      return std::make_unique<NonPreemptiveEdfPolicy>(params);
    case PolicyKind::kPreemptiveEdf:
      return std::make_unique<PreemptiveEdfPolicy>(params);
    case PolicyKind::kQuantumEdf:
      QC_EXPECT(params.quantum > 0,
                "quantum-sliced EDF needs a positive quantum");
      return std::make_unique<QuantumEdfPolicy>(params);
  }
  QC_EXPECT(false, "unknown scheduling policy kind");
  return nullptr;
}

}  // namespace qosctrl::sched
