#include "sched/qpa.h"

#include <algorithm>

#include "util/check.h"

namespace qosctrl::sched {
namespace {

// h(t): total demand of jobs with absolute deadline <= t after a
// synchronous release (same dbf as the exact scan's inner loop).
rt::Cycles demand_at(const std::vector<NpTask>& tasks, rt::Cycles t) {
  rt::Cycles h = 0;
  for (const NpTask& tk : tasks) {
    if (t >= tk.deadline) {
      h += ((t - tk.deadline) / tk.period + 1) * tk.cost;
    }
  }
  return h;
}

// Largest absolute deadline D_i + k * T_i (k >= 0) at or below x, or
// -1 when x lies below every relative deadline.
rt::Cycles last_deadline_at_or_below(const std::vector<NpTask>& tasks,
                                     rt::Cycles x) {
  rt::Cycles best = -1;
  for (const NpTask& tk : tasks) {
    if (x < tk.deadline) continue;
    best = std::max(
        best, tk.deadline + (x - tk.deadline) / tk.period * tk.period);
  }
  return best;
}

}  // namespace

bool qpa_demand_schedulable(const std::vector<NpTask>& tasks,
                            rt::Cycles max_blocking,
                            const DemandQuery& query) {
  if (query.stats != nullptr) ++query.stats->demand_tests;
  if (query.busy_out != nullptr) *query.busy_out = 0;
  if (tasks.empty()) return true;
  rt::Cycles total_cost = 0;
  rt::Cycles max_deadline = 0;
  for (const NpTask& t : tasks) {
    QC_EXPECT(t.cost >= 0, "np task cost must be >= 0");
    QC_EXPECT(t.period > 0, "np task period must be positive");
    if (t.cost > t.deadline) return false;
    total_cost += t.cost;
    max_deadline = std::max(max_deadline, t.deadline);
  }
  const double util = np_utilization(tasks);
  if (util > 1.0) return false;

  // Busy-period fixpoint, optionally warm-started.  A seed below the
  // true fixpoint converges to the same least fixpoint the cold scan
  // finds (request_bound is monotone), so the DemandQuery contract —
  // seed <= true busy length — keeps the horizon, and therefore the
  // decision, identical to the exact scan's.
  QC_EXPECT(query.busy_seed >= 0, "busy seed must be >= 0");
  rt::Cycles busy = std::max(total_cost, query.busy_seed);
  bool converged = false;
  for (int it = 0; it < kEdfMaxBusyIterations; ++it) {
    if (query.stats != nullptr) ++query.stats->busy_iterations;
    const rt::Cycles next = edf_request_bound(tasks, busy);
    if (next == busy) {
      converged = true;
      break;
    }
    busy = next;
  }
  if (!converged) return false;  // U ~ 1 blow-up: reject conservatively
  if (query.busy_out != nullptr) *query.busy_out = busy;

  rt::Cycles limit = std::max(busy, max_deadline);

  // Zhang–Burns clip extended with the blocking term (file comment):
  // in exact arithmetic every failing t is strictly below the bound;
  // the +1 margin absorbs double rounding so the clip stays safe.
  if (util < 1.0) {
    rt::Cycles max_delta = 0;
    rt::Cycles max_block = 0;
    double weighted = 0.0;  // sum_i (T_i - D_i) * U_i
    for (const NpTask& t : tasks) {
      max_delta = std::max(max_delta, t.deadline - t.period);
      max_block = std::max(max_block, std::min(t.cost, max_blocking));
      weighted += static_cast<double>(t.period - t.deadline) *
                  (static_cast<double>(t.cost) /
                   static_cast<double>(t.period));
    }
    const double la =
        (weighted + static_cast<double>(max_block)) / (1.0 - util);
    const double bound =
        std::max(static_cast<double>(max_delta), la) + 1.0;
    if (bound < static_cast<double>(limit)) {
      limit = std::max<rt::Cycles>(0, static_cast<rt::Cycles>(bound));
    }
  }

  // The blocking term is piecewise constant between the sorted
  // distinct relative deadlines:
  //   suffix[k] = max{ min(C_j, cap) : D_j >= ds[k] }
  // and B(t) = suffix[first index with ds > t] (zero past the last).
  std::vector<rt::Cycles> ds;
  ds.reserve(tasks.size());
  for (const NpTask& t : tasks) ds.push_back(t.deadline);
  std::sort(ds.begin(), ds.end());
  ds.erase(std::unique(ds.begin(), ds.end()), ds.end());
  std::vector<rt::Cycles> suffix(ds.size() + 1, 0);
  if (max_blocking > 0) {
    for (const NpTask& t : tasks) {
      const auto k = static_cast<std::size_t>(
          std::lower_bound(ds.begin(), ds.end(), t.deadline) - ds.begin());
      suffix[k] = std::max(suffix[k], std::min(t.cost, max_blocking));
    }
    for (std::size_t k = ds.size(); k-- > 0;) {
      suffix[k] = std::max(suffix[k], suffix[k + 1]);
    }
  }
  const rt::Cycles min_deadline = ds.front();

  rt::Cycles t = last_deadline_at_or_below(tasks, limit);
  long long iterations = 0;
  while (t >= min_deadline) {
    if (++iterations > kQpaMaxIterations) return false;  // conservative
    if (query.stats != nullptr) ++query.stats->qpa_points;
    const rt::Cycles h = demand_at(tasks, t);
    const auto idx = static_cast<std::size_t>(
        std::upper_bound(ds.begin(), ds.end(), t) - ds.begin());
    const rt::Cycles g = h + suffix[idx];
    const rt::Cycles lo = ds[idx - 1];  // interval floor; idx >= 1 here
    if (g > t) return false;
    if (g < t && g >= lo) {
      // Every deadline p in (g, t] shares this interval's blocking
      // value and has h(p) <= h(t) <= g < p, hence passes; resume the
      // iteration at g itself.
      t = g;
    } else if (g < lo) {
      // All of [lo, t] verified; nothing left to test until below
      // the blocking interval.
      t = last_deadline_at_or_below(tasks, lo - 1);
    } else {
      // g == t: the point passes with equality; step to the next
      // lower deadline (no check points lie strictly between).
      t = last_deadline_at_or_below(tasks, t - 1);
    }
  }
  return true;
}

}  // namespace qosctrl::sched
