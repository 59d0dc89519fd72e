#include "support/oracles.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "quality/distortion.h"

namespace qosctrl::media {
namespace {

constexpr int kN = kTransformSize;

/// basis[u][x] = c(u) * cos((2x+1) u pi / 16), c(0)=sqrt(1/8), else sqrt(2/8).
struct Basis {
  double m[kN][kN];
  Basis() {
    const double pi = 3.14159265358979323846;
    for (int u = 0; u < kN; ++u) {
      const double c = (u == 0) ? std::sqrt(1.0 / kN) : std::sqrt(2.0 / kN);
      for (int x = 0; x < kN; ++x) {
        m[u][x] = c * std::cos((2 * x + 1) * u * pi / (2.0 * kN));
      }
    }
  }
};

const Basis& basis() {
  static const Basis b;
  return b;
}

}  // namespace

Sample at_clamped(const Plane& plane, int x, int y) {
  return plane.at(std::clamp(x, 0, plane.width() - 1),
                  std::clamp(y, 0, plane.height() - 1));
}

Frame with_margin(const Frame& frame, int pad) {
  Frame out(frame.width(), frame.height(), 0, pad);
  for (int y = 0; y < frame.height(); ++y) {
    std::memcpy(out.row(y), frame.row(y),
                static_cast<std::size_t>(frame.width()));
  }
  out.fill_border();
  return out;
}

Coeffs8 forward_dct8_ref(const Block8& block) {
  const auto& B = basis().m;
  double tmp[kN][kN];
  // Rows.
  for (int y = 0; y < kN; ++y) {
    for (int u = 0; u < kN; ++u) {
      double acc = 0.0;
      for (int x = 0; x < kN; ++x) {
        acc += B[u][x] * static_cast<double>(block[static_cast<std::size_t>(y * kN + x)]);
      }
      tmp[y][u] = acc;
    }
  }
  // Columns.
  Coeffs8 out;
  for (int v = 0; v < kN; ++v) {
    for (int u = 0; u < kN; ++u) {
      double acc = 0.0;
      for (int y = 0; y < kN; ++y) acc += B[v][y] * tmp[y][u];
      out[static_cast<std::size_t>(v * kN + u)] =
          static_cast<std::int32_t>(std::llround(acc));
    }
  }
  return out;
}

Block8 inverse_dct8_ref(const Coeffs8& coeffs) {
  const auto& B = basis().m;
  double tmp[kN][kN];
  // Columns (inverse).
  for (int u = 0; u < kN; ++u) {
    for (int y = 0; y < kN; ++y) {
      double acc = 0.0;
      for (int v = 0; v < kN; ++v) {
        acc += B[v][y] * static_cast<double>(coeffs[static_cast<std::size_t>(v * kN + u)]);
      }
      tmp[y][u] = acc;
    }
  }
  // Rows (inverse).
  Block8 out;
  for (int y = 0; y < kN; ++y) {
    for (int x = 0; x < kN; ++x) {
      double acc = 0.0;
      for (int u = 0; u < kN; ++u) acc += B[u][x] * tmp[y][u];
      const long long v = std::llround(acc);
      out[static_cast<std::size_t>(y * kN + x)] = static_cast<Residual>(
          std::max<long long>(-32768, std::min<long long>(32767, v)));
    }
  }
  return out;
}

}  // namespace qosctrl::media

namespace qosctrl::quality {

std::int64_t frame_sse_ref(const media::Plane& a, const media::Plane& b) {
  QC_EXPECT(a.width() == b.width() && a.height() == b.height(),
            "planes must have equal dimensions");
  std::int64_t sse = 0;
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      const int d = a.at(x, y) - b.at(x, y);
      sse += d * d;
    }
  }
  return sse;
}

double psnr_ref(const media::Plane& a, const media::Plane& b, double cap) {
  return psnr_from_sse(frame_sse_ref(a, b),
                       static_cast<std::int64_t>(a.width()) * a.height(), cap);
}

}  // namespace qosctrl::quality

namespace qosctrl::sched {

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

namespace qosctrl::farm {

std::string fault_trace(const FarmScenario& scenario,
                        const FarmConfig& config) {
  std::ostringstream os;
  const FaultSpec& faults = scenario.faults;
  os << "seed=" << (faults.seed != 0 ? faults.seed : config.seed)
     << " overrun_p=" << faults.overrun.probability
     << " factor=" << faults.overrun.factor
     << " policy=" << overrun_policy_name(faults.overrun.policy)
     << " loss_p=" << faults.loss.probability << "\n";
  for (const StreamSpec& spec : scenario.streams) {
    const FaultPlan plan(faults, config.seed, spec.id);
    for (int f = 0; f < spec.num_frames; ++f) {
      const FrameFaults ff = plan.at(f);
      if (!ff.overrun && !ff.lost) continue;
      os << "stream " << spec.id << " frame " << f << ':'
         << (ff.overrun ? " overrun" : "") << (ff.lost ? " lost" : "")
         << "\n";
    }
  }
  for (const FailureEvent& fe : faults.failures) {
    os << "proc " << fe.processor << " fails at " << fe.time
       << (fe.permanent() ? " permanently"
                          : " transiently, repair " +
                                std::to_string(fe.repair))
       << "\n";
  }
  return os.str();
}

}  // namespace qosctrl::farm
