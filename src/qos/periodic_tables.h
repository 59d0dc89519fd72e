// Compact slack tables for iterative programs — the paper's
// "compositional generation of EDF schedules for iterative programs"
// (Section 4, future work) made concrete.
//
// When a cycle is N iterations of an m-action body, every iteration
// shares one deadline (j+1) * p for an integer per-iteration period p,
// and time tables are identical across iterations, both suffix slacks
// have closed forms over body-level prefix sums.  Writing sigma for the
// body's EDF order, c_q(k) for the body cost at order position k,
// R_q(k) = sum_{l>=k} c_q(l) and T_q = R_q(0):
//
//   slack_av(j, k, q) = (j+1) p - Rav_q(k) + (N-1-j) * min(0, p - Tav_q)
//   tail_wc(j, k)     = (j+1) p - Rwc_qmin(k)
//                                + (N-1-j) * min(0, p - Twc_qmin)
//   slack_wc(j, k, q) = min((j+1) p, tail_wc(next position)) - cwc_q(k)
//
// so the controller stores O(m * |Q|) words instead of O(N * m * |Q|)
// — for the paper's 1620-macroblock frames this is the difference
// between ~1 KiB and ~1.8 MiB, and it is what makes the paper's
// "memory overhead not more than 1%" figure reachable.  Values agree
// bit-for-bit with qos::SlackTables (tested).
#pragma once

#include <vector>

#include "rt/parameterized_system.h"

namespace qosctrl::qos {

/// Body-level description of an iterative cycle.
struct PeriodicBody {
  /// EDF order of the body's actions (body action ids).
  rt::ExecutionSequence order;
  std::vector<rt::QualityLevel> qualities;
  /// cav[qi][k] / cwc[qi][k]: cost of the action at *order position* k.
  std::vector<std::vector<rt::Cycles>> cav;
  std::vector<std::vector<rt::Cycles>> cwc;
  rt::Cycles period = 0;  ///< per-iteration deadline increment p
  int iterations = 1;     ///< N
};

/// O(m * |Q|)-memory equivalent of SlackTables for periodic cycles.
class PeriodicSlackTables {
 public:
  /// Builds the prefix sums.  Requires a well-formed body: equal table
  /// sizes, positive period, iterations >= 1, 0 <= Cav <= Cwc, and Cav
  /// and Cwc non-decreasing in q (what makes qos::best_quality's binary
  /// search exact on these tables).
  static PeriodicSlackTables build(const PeriodicBody& body);

  std::size_t body_size() const { return body_.order.size(); }
  int iterations() const { return body_.iterations; }
  std::size_t num_positions() const {
    return body_size() * static_cast<std::size_t>(body_.iterations);
  }
  const std::vector<rt::QualityLevel>& quality_levels() const {
    return body_.qualities;
  }

  /// Unrolled action id at schedule position i (iteration-major).
  rt::ActionId action_at(std::size_t i) const;

  /// Deadline of schedule position i.
  rt::Cycles deadline_at(std::size_t i) const;

  /// Closed-form slacks; agree exactly with SlackTables on the
  /// equivalent unrolled system.
  rt::Cycles slack_av(std::size_t i, std::size_t qi) const;
  rt::Cycles slack_wc(std::size_t i, std::size_t qi) const;

  /// Persistent storage footprint in bytes (the embedded artifact).
  std::size_t table_bytes() const;

 private:
  PeriodicBody body_;
  // rav_[qi][k] = sum of cav over order positions >= k; tav_[qi] = rav_[qi][0]
  std::vector<std::vector<rt::Cycles>> rav_;
  std::vector<rt::Cycles> tav_;
  std::vector<rt::Cycles> rwc0_;  // qmin worst-case suffix sums
  rt::Cycles twc0_ = 0;
};

}  // namespace qosctrl::qos
