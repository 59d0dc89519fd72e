// Declarative service-level objectives over the windowed time series,
// with SRE-style multi-window burn-rate alerting.
//
// An objective is parsed from one compact spec string:
//
//   METRIC OP THRESH [@SPAN] [:SCOPE] [%BUDGET]
//
//   METRIC  latency_p50 | latency_p95 | latency_p99 (aliases
//           p50_latency ...) | queue_p99 | miss_rate | conceal_rate |
//           recovery_latency
//   OP      '<' or '<='
//   THRESH  latency/queue thresholds in cycles, or `0.8w` / `0.8*window`
//           for a fraction of the fleet's largest per-stream latency
//           window (K*P); rates are fractions in [0, 1];
//           recovery_latency is cycles (or `w` multiples)
//   SPAN    rolling evaluation span: `@50ms` (8 GHz virtual
//           milliseconds), `@4Mc` (2^20-free: 1 Mc = 1e6 cycles), or
//           `@400000c`; default = one base window
//   SCOPE   :fleet (default) | :controlled | :constant | :feedback —
//           stream-class scopes read the `@class`-suffixed tracks
//   BUDGET  fraction of evaluation points allowed to violate
//           (default 0.05)
//
//   e.g.  --slo 'latency_p99<0.8*window@50ms'
//         --slo 'miss_rate<=0.02:controlled%0.1'
//
// Evaluation is rolling: at every base window i the span's histograms
// ([i-k+1, i]) are merged bucket-wise and the metric tested, so the
// verdicts inherit the series' determinism — a pure function of
// (scenario, config), byte-identical across workers x shards.
//
// Burn rate at point i = (violating points among the last N) /
// (budget * N).  An alert fires on entry into the state where both the
// fast span (4 evaluation points) and the slow span (16) burn at >= 1x
// — the classic short-AND-long-window alert, which ignores one bad
// window when the budget is healthy but pages quickly during a real
// regression.  Alerts are emitted as `slo_alert` trace instants on the
// control-plane row when tracing is on.
#pragma once

#include <string>
#include <vector>

#include "obs/timeseries.h"
#include "rt/types.h"

namespace qosctrl::obs {

/// Simulated cycles per virtual millisecond (the paper's 8 GHz clock).
inline constexpr rt::Cycles kCyclesPerMs = 8000000;

enum class SloMetric {
  kLatencyP50,
  kLatencyP95,
  kLatencyP99,
  kQueueP99,
  kMissRate,
  kConcealRate,
  kRecoveryLatency,
};

/// Stream-class scope: fleet-wide, or one control mode's streams only.
enum class SloScope { kFleet, kControlled, kConstant, kFeedback };

const char* slo_metric_name(SloMetric m);
const char* slo_scope_name(SloScope s);

struct SloSpec {
  std::string text;  ///< the spec as given (report/CSV identity)
  SloMetric metric = SloMetric::kLatencyP99;
  bool inclusive = false;    ///< true for '<=' (violation when >)
  double threshold = 0.0;    ///< cycles or fraction, per metric
  bool threshold_in_windows = false;  ///< threshold scales the fleet's
                                      ///< largest latency window (K*P)
  rt::Cycles span = 0;       ///< rolling span in cycles; 0 = one window
  SloScope scope = SloScope::kFleet;
  double budget = 0.05;      ///< allowed violating fraction (0, 1]
};

/// Parses one spec string; on failure returns false and sets `*error`.
/// Thresholds and budgets must be finite, and the spec may contain no
/// whitespace or control character (reports copy it verbatim).
bool parse_slo(const std::string& text, SloSpec* out, std::string* error);

/// One multi-window burn-rate alert: the evaluation point where the
/// fast and slow burns first crossed 1x together.
struct SloAlert {
  long long window = 0;  ///< base-window index of the alert point
  double fast_burn = 0.0;
  double slow_burn = 0.0;
};

struct SloOutcome {
  SloSpec spec;
  long long points = 0;      ///< evaluation points with data
  long long violations = 0;  ///< points that breached the threshold
  long long worst_window = -1;  ///< point with the worst metric value
  double worst_value = 0.0;
  /// 1 - violations / (budget * points); negative when overspent.
  double budget_remaining = 1.0;
  bool met = true;  ///< budget_remaining >= 0
  std::vector<SloAlert> alerts;
};

struct SloReport {
  std::vector<SloOutcome> objectives;
  bool all_met() const;
};

/// Everything evaluation reads besides the specs.  `reference_window`
/// anchors `w`-denominated thresholds (the fleet's largest K*P);
/// `recovery_latencies` are the per-failure full-recovery latencies in
/// cycles (< 0 = never recovered, always a violation).
struct SloInputs {
  const TimeSeries* series = nullptr;
  rt::Cycles reference_window = 0;
  std::vector<rt::Cycles> recovery_latencies;
};

/// Evaluates every spec against the inputs.  Pure function.
SloReport evaluate_slos(const std::vector<SloSpec>& specs,
                        const SloInputs& inputs);

/// JSON object for the report's "slo" section.
std::string slo_to_json(const SloReport& report);

/// Text-summary lines, one per objective.
std::string slo_summary(const SloReport& report);

}  // namespace qosctrl::obs
