// Precomputed suffix-slack tables — the output of the paper's prototype
// tool (Figure 4) that the generic controller consults at run time.
//
// When the deadline order is independent of the quality (the tool's
// stated restriction; we require the slightly stronger and much more
// common property that deadlines themselves are quality-independent),
// the EDF order alpha is fixed once and for all, and both quality
// constraints reduce to comparisons of the elapsed time t against
// precomputed per-position slacks:
//
//   Qual_Const_av(i, q)  <=>  t <= slack_av[i][q]
//     slack_av[i][q] = min_{j>=i} ( D(alpha(j)) - sum_{k=i..j} Cav_q(alpha(k)) )
//   Qual_Const_wc(i, q)  <=>  t <= slack_wc[i][q]
//     slack_wc[i][q] = min( D(alpha(i)), tail_wc[i+1] ) - Cwc_q(alpha(i))
//     tail_wc[i]     = min_{j>=i} ( D(alpha(j)) - sum_{k=i..j} Cwc_qmin(alpha(k)) )
//
// Both tables are built by a single backward sweep per quality level,
// O(n * |Q|) time and space.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "rt/parameterized_system.h"

namespace qosctrl::qos {

/// The compiled controller data: the static EDF schedule plus the two
/// slack tables indexed by [position][quality-index].
class SlackTables {
 public:
  /// Builds the tables from a validated parameterized system.
  /// Requires: sys.validate() empty and quality-independent deadlines.
  static SlackTables build(const rt::ParameterizedSystem& sys);

  const rt::ExecutionSequence& schedule() const { return alpha_; }
  const std::vector<rt::QualityLevel>& quality_levels() const {
    return qualities_;
  }

  std::size_t num_positions() const { return alpha_.size(); }

  /// Slack lookups; `qi` is the index of q in quality_levels().
  rt::Cycles slack_av(std::size_t i, std::size_t qi) const {
    return av_[i][qi];
  }
  rt::Cycles slack_wc(std::size_t i, std::size_t qi) const {
    return wc_[i][qi];
  }

  /// The largest elapsed time t at which a *fresh* cycle is still
  /// fully safe: running everything at qmin from t meets every
  /// deadline even under worst-case costs.  This is the slack-table
  /// query the farm's admission controller makes — a stream whose
  /// service may start up to L cycles late needs max_initial_delay()
  /// >= L (with the tables paced from service start, L is the
  /// latency window minus the compiled budget).  Negative means the
  /// system is not worst-case schedulable even at qmin.
  rt::Cycles max_initial_delay(bool soft = false) const {
    if (num_positions() == 0) return 0;
    return soft ? av_[0][0] : std::min(av_[0][0], wc_[0][0]);
  }

  /// The quality index an on-time cycle is granted at its first
  /// *quality-sensitive* position, assuming every preceding action ran
  /// at its qmin worst case — the admission controller's prediction of
  /// the quality a candidate budget buys up front.  Later decisions
  /// routinely exceed it, because actual costs run below worst case
  /// and the freed slack accumulates.  (Position 0 itself may be
  /// quality-independent, e.g. the encoder's Grab action, and would
  /// answer qmax regardless of budget.)  Precomputed by build().
  std::size_t initial_quality(bool soft = false) const {
    return soft ? ceiling_soft_ : ceiling_hard_;
  }

  /// Memory footprint of the tables in bytes (reported by the overhead
  /// benchmark, mirroring the paper's <= 1% memory figure).
  std::size_t table_bytes() const;

 private:
  rt::ExecutionSequence alpha_;
  std::vector<rt::QualityLevel> qualities_;
  // av_[i][qi], wc_[i][qi]; i in [0, n)
  std::vector<std::vector<rt::Cycles>> av_;
  std::vector<std::vector<rt::Cycles>> wc_;
  std::size_t ceiling_hard_ = 0;
  std::size_t ceiling_soft_ = 0;
};

/// The combined constraint on slack tables (SlackTables or
/// PeriodicSlackTables): true when running the action at position i at
/// quality index qi is acceptable with elapsed time t.  `soft` drops
/// the worst-case (safety) half.
template <class Tables>
bool acceptable(const Tables& tables, std::size_t i, std::size_t qi,
                rt::Cycles t, bool soft = false) {
  if (t > tables.slack_av(i, qi)) return false;
  return soft || t <= tables.slack_wc(i, qi);
}

/// The controller's decision, and the only one: the maximal quality
/// index in [0, hi] acceptable at position i and elapsed time t; when
/// even index 0 (qmin) fails, returns 0 — the safety fallback.
///
/// Costs are non-decreasing in q (Definition 2.3, enforced by
/// ParameterizedSystem::validate and PeriodicSlackTables::build), so
/// both slack columns are non-increasing in qi and `acceptable` is
/// downward-closed: true on a prefix [0, k] of quality indices, false
/// above.  That makes the decision a predecessor query answerable in
/// O(log|Q|) by binary search instead of the O(|Q|) downward scan
/// (tested equivalent on both table forms).
template <class Tables>
std::size_t best_quality(const Tables& tables, std::size_t i, std::size_t hi,
                         rt::Cycles t, bool soft = false) {
  if (!acceptable(tables, i, 0, t, soft)) return 0;  // qmin fallback
  // Invariant: acceptable at lo, not acceptable at hi + 1.
  std::size_t lo = 0;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (acceptable(tables, i, mid, t, soft)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

}  // namespace qosctrl::qos
