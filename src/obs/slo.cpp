#include "obs/slo.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>

#include "util/json.h"

namespace qosctrl::obs {
namespace {

/// Fast/slow burn spans in evaluation points (the classic multi-window
/// pair, scaled to the simulation's short horizons).
constexpr int kFastPoints = 4;
constexpr int kSlowPoints = 16;

bool parse_metric(const std::string& s, SloMetric* out) {
  if (s == "latency_p50" || s == "p50_latency") {
    *out = SloMetric::kLatencyP50;
  } else if (s == "latency_p95" || s == "p95_latency") {
    *out = SloMetric::kLatencyP95;
  } else if (s == "latency_p99" || s == "p99_latency") {
    *out = SloMetric::kLatencyP99;
  } else if (s == "queue_p99") {
    *out = SloMetric::kQueueP99;
  } else if (s == "miss_rate") {
    *out = SloMetric::kMissRate;
  } else if (s == "conceal_rate" || s == "concealment_rate") {
    *out = SloMetric::kConcealRate;
  } else if (s == "recovery_latency") {
    *out = SloMetric::kRecoveryLatency;
  } else {
    return false;
  }
  return true;
}

bool parse_scope(const std::string& s, SloScope* out) {
  if (s == "fleet") {
    *out = SloScope::kFleet;
  } else if (s == "controlled") {
    *out = SloScope::kControlled;
  } else if (s == "constant") {
    *out = SloScope::kConstant;
  } else if (s == "feedback") {
    *out = SloScope::kFeedback;
  } else {
    return false;
  }
  return true;
}

bool is_rate(SloMetric m) {
  return m == SloMetric::kMissRate || m == SloMetric::kConcealRate;
}

bool is_latency(SloMetric m) {
  return m == SloMetric::kLatencyP50 || m == SloMetric::kLatencyP95 ||
         m == SloMetric::kLatencyP99;
}

/// "50ms" / "4Mc" / "400000c" -> cycles; false for a count or span
/// past the cycle range.
bool parse_span(const std::string& s, rt::Cycles* out) {
  std::size_t i = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  if (i == 0) return false;
  errno = 0;
  const long long n = std::strtoll(s.substr(0, i).c_str(), nullptr, 10);
  if (errno == ERANGE) return false;
  const std::string unit = s.substr(i);
  rt::Cycles scale = 0;
  if (unit == "ms") {
    scale = kCyclesPerMs;
  } else if (unit == "Mc") {
    scale = 1000000;
  } else if (unit == "c") {
    scale = 1;
  } else {
    return false;
  }
  if (n > std::numeric_limits<rt::Cycles>::max() / scale) return false;
  *out = n * scale;
  return *out > 0;
}

/// "0.8", "0.8w", "0.8*window" -> value + the in-windows flag.
bool parse_threshold(const std::string& s, double* value, bool* in_windows) {
  std::string num = s;
  *in_windows = false;
  if (num.size() > 7 && num.substr(num.size() - 7) == "*window") {
    num = num.substr(0, num.size() - 7);
    *in_windows = true;
  } else if (!num.empty() && num.back() == 'w') {
    num = num.substr(0, num.size() - 1);
    *in_windows = true;
  }
  if (num.empty()) return false;
  char* end = nullptr;
  *value = std::strtod(num.c_str(), &end);
  return end == num.c_str() + num.size() && std::isfinite(*value) &&
         *value >= 0.0;
}

/// The track an objective reads under its scope: the bare fleet track,
/// or the `@class` variant the data plane records next to it.
std::string scoped_track(const char* base, SloScope scope) {
  std::string name(base);
  if (scope != SloScope::kFleet) {
    name += '@';
    name += slo_scope_name(scope);
  }
  return name;
}

const SeriesTrack* find_track(const TimeSeries& series,
                              const std::string& name) {
  const auto it = series.tracks.find(name);
  return it == series.tracks.end() ? nullptr : &it->second;
}

/// Merges `track`'s histograms over base windows [lo, hi] (inclusive).
Histogram merge_span(const SeriesTrack& track, long long lo, long long hi) {
  Histogram h;
  for (auto it = track.lower_bound(lo);
       it != track.end() && it->first <= hi; ++it) {
    h.merge(it->second);
  }
  return h;
}

/// Rolling burn-rate state: remembers the last kSlowPoints verdicts.
class BurnWindow {
 public:
  void push(bool violated) {
    recent_.push_back(violated);
    if (recent_.size() > static_cast<std::size_t>(kSlowPoints)) {
      recent_.pop_front();
    }
  }
  double burn(int span, double budget) const {
    const int n = std::min<int>(span, static_cast<int>(recent_.size()));
    if (n == 0 || budget <= 0.0) return 0.0;
    int bad = 0;
    for (int i = 0; i < n; ++i) {
      if (recent_[recent_.size() - 1 - static_cast<std::size_t>(i)]) ++bad;
    }
    return static_cast<double>(bad) / (budget * n);
  }

 private:
  std::deque<bool> recent_;
};

void evaluate_windowed(const SloSpec& spec, const SloInputs& in,
                       SloOutcome* out) {
  const TimeSeries& series = *in.series;
  const long long k =
      spec.span > 0
          ? std::max<long long>(1, (spec.span + series.window - 1) /
                                       series.window)
          : 1;
  const double threshold =
      spec.threshold_in_windows
          ? spec.threshold * static_cast<double>(in.reference_window)
          : spec.threshold;

  // The tracks this metric reads; evaluation covers their union range.
  const SeriesTrack* primary = nullptr;
  const SeriesTrack* denom = nullptr;
  switch (spec.metric) {
    case SloMetric::kLatencyP50:
    case SloMetric::kLatencyP95:
    case SloMetric::kLatencyP99:
      primary = find_track(series,
                           scoped_track("frame_latency_cycles", spec.scope));
      break;
    case SloMetric::kQueueP99:
      primary = find_track(series, "queue_depth");
      break;
    case SloMetric::kMissRate:
      primary =
          find_track(series, scoped_track("display_misses", spec.scope));
      denom =
          find_track(series, scoped_track("frames_completed", spec.scope));
      break;
    case SloMetric::kConcealRate:
      primary =
          find_track(series, scoped_track("frames_concealed", spec.scope));
      denom =
          find_track(series, scoped_track("frames_completed", spec.scope));
      break;
    case SloMetric::kRecoveryLatency:
      return;  // not windowed; handled by the caller
  }

  long long lo = -1, hi = -1;
  auto widen = [&](const SeriesTrack* t) {
    if (t == nullptr || t->empty()) return;
    const long long first = t->begin()->first;
    const long long last = t->rbegin()->first;
    lo = lo < 0 ? first : std::min(lo, first);
    hi = hi < 0 ? last : std::max(hi, last);
  };
  widen(denom);
  // Rates evaluate wherever the denominator has data (a window with
  // completions and no misses is a healthy point, not a gap) —
  // percentile metrics only where the primary track recorded.
  if (!is_rate(spec.metric)) widen(primary);
  if (lo < 0) return;  // no data: vacuous, zero points

  BurnWindow burn;
  bool alerting = false;
  for (long long i = lo; i <= hi; ++i) {
    const long long span_lo = i - k + 1;
    double value = 0.0;
    if (is_rate(spec.metric)) {
      const Histogram d =
          denom != nullptr ? merge_span(*denom, span_lo, i) : Histogram{};
      const Histogram n =
          primary != nullptr ? merge_span(*primary, span_lo, i)
                             : Histogram{};
      long long den = d.count();
      if (spec.metric == SloMetric::kConcealRate) den += n.count();
      if (den == 0) continue;  // nothing delivered: no evaluation point
      value = static_cast<double>(n.count()) / static_cast<double>(den);
    } else {
      if (primary == nullptr) continue;
      const Histogram h = merge_span(*primary, span_lo, i);
      if (h.count() == 0) continue;
      double p = 0.99;
      if (spec.metric == SloMetric::kLatencyP50) p = 0.50;
      if (spec.metric == SloMetric::kLatencyP95) p = 0.95;
      value = static_cast<double>(h.percentile(p));
    }

    const bool violated =
        spec.inclusive ? value > threshold : value >= threshold;
    ++out->points;
    if (violated) ++out->violations;
    if (out->worst_window < 0 || value > out->worst_value) {
      out->worst_window = i;
      out->worst_value = value;
    }
    burn.push(violated);
    const double fast = burn.burn(kFastPoints, spec.budget);
    const double slow = burn.burn(kSlowPoints, spec.budget);
    const bool paging = fast >= 1.0 && slow >= 1.0;
    if (paging && !alerting) {
      out->alerts.push_back({i, fast, slow});
    }
    alerting = paging;
  }
}

void evaluate_recovery(const SloSpec& spec, const SloInputs& in,
                       SloOutcome* out) {
  const double threshold =
      spec.threshold_in_windows
          ? spec.threshold * static_cast<double>(in.reference_window)
          : spec.threshold;
  for (std::size_t i = 0; i < in.recovery_latencies.size(); ++i) {
    const rt::Cycles latency = in.recovery_latencies[i];
    ++out->points;
    const double value = static_cast<double>(latency);
    // A recovery that never completed busts any budget.
    const bool violated =
        latency < 0 ||
        (spec.inclusive ? value > threshold : value >= threshold);
    if (violated) ++out->violations;
    const double worst =
        latency < 0 ? threshold + 1.0 : value;  // rank unrecovered worst
    if (out->worst_window < 0 || worst > out->worst_value) {
      out->worst_window = static_cast<long long>(i);
      out->worst_value = worst;
    }
  }
}

}  // namespace

const char* slo_metric_name(SloMetric m) {
  switch (m) {
    case SloMetric::kLatencyP50:
      return "latency_p50";
    case SloMetric::kLatencyP95:
      return "latency_p95";
    case SloMetric::kLatencyP99:
      return "latency_p99";
    case SloMetric::kQueueP99:
      return "queue_p99";
    case SloMetric::kMissRate:
      return "miss_rate";
    case SloMetric::kConcealRate:
      return "conceal_rate";
    case SloMetric::kRecoveryLatency:
      return "recovery_latency";
  }
  return "?";
}

const char* slo_scope_name(SloScope s) {
  switch (s) {
    case SloScope::kFleet:
      return "fleet";
    case SloScope::kControlled:
      return "controlled";
    case SloScope::kConstant:
      return "constant";
    case SloScope::kFeedback:
      return "feedback";
  }
  return "?";
}

bool parse_slo(const std::string& text, SloSpec* out, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  *out = SloSpec{};
  out->text = text;

  // The spec is copied verbatim into the reports (a JSON string, a CSV
  // field), and strtod would skip leading whitespace inside it.
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isspace(u) || std::iscntrl(u)) {
      return fail("whitespace or control character in spec");
    }
  }

  const std::size_t op = text.find('<');
  if (op == std::string::npos) return fail("missing '<' or '<='");
  if (op == 0) return fail("missing metric name");
  if (!parse_metric(text.substr(0, op), &out->metric)) {
    return fail("unknown metric '" + text.substr(0, op) + "'");
  }
  std::size_t pos = op + 1;
  if (pos < text.size() && text[pos] == '=') {
    out->inclusive = true;
    ++pos;
  }

  // THRESH runs to the first suffix introducer; then @SPAN / :SCOPE /
  // %BUDGET segments in any order.
  const std::size_t suffix = text.find_first_of("@:%", pos);
  const std::string thresh =
      text.substr(pos, suffix == std::string::npos ? std::string::npos
                                                   : suffix - pos);
  if (!parse_threshold(thresh, &out->threshold,
                       &out->threshold_in_windows)) {
    return fail("bad threshold '" + thresh + "'");
  }
  pos = suffix;
  while (pos != std::string::npos && pos < text.size()) {
    const char kind = text[pos];
    const std::size_t next = text.find_first_of("@:%", pos + 1);
    const std::string seg =
        text.substr(pos + 1, next == std::string::npos ? std::string::npos
                                                       : next - pos - 1);
    if (kind == '@') {
      if (!parse_span(seg, &out->span)) {
        return fail("bad span '" + seg + "' (want e.g. 50ms, 4Mc, 400000c)");
      }
    } else if (kind == ':') {
      if (!parse_scope(seg, &out->scope)) {
        return fail("unknown scope '" + seg + "'");
      }
    } else {  // '%'
      char* end = nullptr;
      out->budget = std::strtod(seg.c_str(), &end);
      // Written so that NaN fails too.
      if (end != seg.c_str() + seg.size() || !(out->budget > 0.0) ||
          out->budget > 1.0) {
        return fail("bad budget '" + seg + "' (want a fraction in (0, 1])");
      }
    }
    pos = next;
  }

  // Per-metric sanity.
  if (is_rate(out->metric)) {
    if (out->threshold_in_windows) {
      return fail("rate thresholds are fractions, not window multiples");
    }
    if (out->threshold > 1.0) return fail("rate threshold exceeds 1");
  }
  if (out->metric == SloMetric::kQueueP99 && out->threshold_in_windows) {
    return fail("queue_p99 thresholds are depths, not window multiples");
  }
  if ((out->metric == SloMetric::kQueueP99 ||
       out->metric == SloMetric::kRecoveryLatency) &&
      out->scope != SloScope::kFleet) {
    return fail(std::string(slo_metric_name(out->metric)) +
                " supports only the fleet scope");
  }
  if (out->metric == SloMetric::kRecoveryLatency && out->span != 0) {
    return fail("recovery_latency has no rolling span");
  }
  if (is_latency(out->metric) && out->threshold <= 0.0) {
    return fail("latency threshold must be positive");
  }
  return true;
}

bool SloReport::all_met() const {
  for (const SloOutcome& o : objectives) {
    if (!o.met) return false;
  }
  return true;
}

SloReport evaluate_slos(const std::vector<SloSpec>& specs,
                        const SloInputs& inputs) {
  SloReport report;
  report.objectives.reserve(specs.size());
  for (const SloSpec& spec : specs) {
    SloOutcome out;
    out.spec = spec;
    if (spec.metric == SloMetric::kRecoveryLatency) {
      evaluate_recovery(spec, inputs, &out);
    } else if (inputs.series != nullptr && inputs.series->window > 0) {
      evaluate_windowed(spec, inputs, &out);
    }
    out.budget_remaining =
        out.points > 0
            ? 1.0 - static_cast<double>(out.violations) /
                        (spec.budget * static_cast<double>(out.points))
            : 1.0;
    out.met = out.budget_remaining >= 0.0;
    report.objectives.push_back(std::move(out));
  }
  return report;
}

std::string slo_to_json(const SloReport& report) {
  // Thresholds, budgets and evaluated values print as integers when
  // integral (cycle thresholds, counts), with full round-trip
  // precision otherwise.
  util::JsonWriter w;
  w.begin_object().key("objectives").begin_array();
  for (const SloOutcome& o : report.objectives) {
    w.begin_object();
    w.key("spec").string(o.spec.text);
    w.key("metric").string(slo_metric_name(o.spec.metric));
    w.key("scope").string(slo_scope_name(o.spec.scope));
    w.key("threshold").integral_or_number(o.spec.threshold);
    w.key("threshold_in_windows").boolean(o.spec.threshold_in_windows);
    w.key("span").integer(o.spec.span);
    w.key("budget").integral_or_number(o.spec.budget);
    w.key("points").integer(o.points);
    w.key("violations").integer(o.violations);
    w.key("worst_window").integer(o.worst_window);
    w.key("worst_value").integral_or_number(o.worst_value);
    w.key("budget_remaining").integral_or_number(o.budget_remaining);
    w.key("met").boolean(o.met);
    w.key("alerts").begin_array();
    for (const SloAlert& a : o.alerts) {
      w.begin_object().key("window").integer(a.window);
      w.key("fast_burn").integral_or_number(a.fast_burn);
      w.key("slow_burn").integral_or_number(a.slow_burn);
      w.end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().key("all_met").boolean(report.all_met()).end_object();
  return w.take();
}

std::string slo_summary(const SloReport& report) {
  util::JsonWriter w;
  for (const SloOutcome& o : report.objectives) {
    w.raw("slo ").raw(o.spec.text).raw(": points=").raw_integer(o.points);
    w.raw(" violations=").raw_integer(o.violations);
    if (o.worst_window >= 0) {
      w.raw(" worst_window=").raw_integer(o.worst_window);
      w.raw(" worst_value=").raw_integral_or_number(o.worst_value);
    }
    w.raw(" budget_remaining=").raw_integral_or_number(o.budget_remaining);
    w.raw(" alerts=").raw_integer(static_cast<long long>(o.alerts.size()));
    w.raw(o.met ? " MET\n" : " MISSED\n");
  }
  return w.take();
}

}  // namespace qosctrl::obs
