#include "sched/np_edf.h"

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

}  // namespace qosctrl::sched
