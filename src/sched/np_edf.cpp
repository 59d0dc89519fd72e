#include "sched/np_edf.h"

#include <algorithm>

#include "util/check.h"

namespace qosctrl::sched {

rt::Cycles edf_request_bound(const std::vector<NpTask>& tasks,
                             rt::Cycles w) {
  rt::Cycles sum = 0;
  for (const NpTask& t : tasks) {
    const rt::Cycles jobs = (w + t.period - 1) / t.period;  // ceil
    sum += jobs * t.cost;
  }
  return sum;
}

double np_utilization(const std::vector<NpTask>& tasks) {
  double u = 0.0;
  for (const NpTask& t : tasks) {
    QC_EXPECT(t.period > 0, "np task period must be positive");
    u += static_cast<double>(t.cost) / static_cast<double>(t.period);
  }
  return u;
}

bool edf_demand_schedulable(const std::vector<NpTask>& tasks,
                            rt::Cycles max_blocking) {
  if (tasks.empty()) return true;
  rt::Cycles total_cost = 0;
  for (const NpTask& t : tasks) {
    QC_EXPECT(t.cost >= 0, "np task cost must be >= 0");
    QC_EXPECT(t.period > 0, "np task period must be positive");
    if (t.cost > t.deadline) return false;
    total_cost += t.cost;
  }
  if (np_utilization(tasks) > 1.0) return false;

  // Length of the synchronous busy period: least fixpoint of
  // w = request_bound(w), seeded with sum(C).  The demand criterion
  // only needs check points inside it.
  rt::Cycles busy = total_cost;
  bool converged = false;
  for (int it = 0; it < kEdfMaxBusyIterations; ++it) {
    const rt::Cycles next = edf_request_bound(tasks, busy);
    if (next == busy) {
      converged = true;
      break;
    }
    busy = next;
  }
  if (!converged) return false;  // U ~ 1 blow-up: reject conservatively

  rt::Cycles horizon = busy;
  for (const NpTask& t : tasks) horizon = std::max(horizon, t.deadline);

  // Check points: every absolute deadline D_i + k * T_i within the
  // horizon.
  std::vector<rt::Cycles> points;
  for (const NpTask& t : tasks) {
    for (rt::Cycles p = t.deadline; p <= horizon; p += t.period) {
      points.push_back(p);
      if (points.size() > kEdfMaxCheckPoints) return false;  // conservative
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  for (const rt::Cycles p : points) {
    rt::Cycles demand = 0;
    rt::Cycles blocking = 0;
    for (const NpTask& t : tasks) {
      if (p >= t.deadline) {
        demand += ((p - t.deadline) / t.period + 1) * t.cost;
      } else {
        // A job with a later deadline may have just started: it blocks
        // until the run queue's next preemption opportunity — its full
        // cost run-to-completion, at most one quantum when sliced,
        // nothing when fully preemptive.
        blocking = std::max(blocking, std::min(t.cost, max_blocking));
      }
    }
    if (demand + blocking > p) return false;
  }
  return true;
}

}  // namespace qosctrl::sched
