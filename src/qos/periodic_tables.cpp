#include "qos/periodic_tables.h"

#include <algorithm>

#include "util/check.h"

namespace qosctrl::qos {

PeriodicSlackTables PeriodicSlackTables::build(const PeriodicBody& body) {
  const std::size_t m = body.order.size();
  const std::size_t nq = body.qualities.size();
  QC_EXPECT(m > 0, "periodic body must contain at least one action");
  QC_EXPECT(nq > 0, "periodic body needs at least one quality level");
  QC_EXPECT(body.cav.size() == nq && body.cwc.size() == nq,
            "one cost row per quality level required");
  for (std::size_t qi = 0; qi < nq; ++qi) {
    QC_EXPECT(body.cav[qi].size() == m && body.cwc[qi].size() == m,
              "cost rows must cover every body action");
    for (std::size_t k = 0; k < m; ++k) {
      QC_EXPECT(body.cav[qi][k] >= 0 &&
                    body.cav[qi][k] <= body.cwc[qi][k],
                "0 <= Cav <= Cwc required");
      QC_EXPECT(qi == 0 || (body.cav[qi][k] >= body.cav[qi - 1][k] &&
                            body.cwc[qi][k] >= body.cwc[qi - 1][k]),
                "Cav and Cwc must not decrease in q");
    }
  }
  QC_EXPECT(body.period > 0, "per-iteration period must be positive");
  QC_EXPECT(body.iterations >= 1, "iteration count must be >= 1");

  PeriodicSlackTables out;
  out.body_ = body;
  out.rav_.assign(nq, std::vector<rt::Cycles>(m + 1, 0));
  out.tav_.assign(nq, 0);
  out.rwc0_.assign(m + 1, 0);
  for (std::size_t qi = 0; qi < nq; ++qi) {
    for (std::size_t k = m; k-- > 0;) {
      out.rav_[qi][k] = out.rav_[qi][k + 1] + body.cav[qi][k];
    }
    out.tav_[qi] = out.rav_[qi][0];
  }
  for (std::size_t k = m; k-- > 0;) {
    out.rwc0_[k] = out.rwc0_[k + 1] + body.cwc[0][k];
  }
  out.twc0_ = out.rwc0_[0];
  return out;
}

rt::ActionId PeriodicSlackTables::action_at(std::size_t i) const {
  QC_EXPECT(i < num_positions(), "position out of range");
  const std::size_t m = body_size();
  const auto j = static_cast<rt::ActionId>(i / m);
  const std::size_t k = i % m;
  return j * static_cast<rt::ActionId>(m) + body_.order[k];
}

rt::Cycles PeriodicSlackTables::deadline_at(std::size_t i) const {
  QC_EXPECT(i < num_positions(), "position out of range");
  const auto j = static_cast<rt::Cycles>(i / body_size());
  return (j + 1) * body_.period;
}

rt::Cycles PeriodicSlackTables::slack_av(std::size_t i, std::size_t qi) const {
  QC_EXPECT(i < num_positions(), "position out of range");
  QC_EXPECT(qi < body_.qualities.size(), "quality index out of range");
  const std::size_t m = body_size();
  const auto j = static_cast<rt::Cycles>(i / m);
  const std::size_t k = i % m;
  const rt::Cycles remaining_iters = body_.iterations - 1 - j;
  const rt::Cycles drift = std::min<rt::Cycles>(0, body_.period - tav_[qi]);
  return (j + 1) * body_.period - rav_[qi][k] + remaining_iters * drift;
}

rt::Cycles PeriodicSlackTables::slack_wc(std::size_t i, std::size_t qi) const {
  QC_EXPECT(i < num_positions(), "position out of range");
  QC_EXPECT(qi < body_.qualities.size(), "quality index out of range");
  const std::size_t m = body_size();
  const auto j = static_cast<rt::Cycles>(i / m);
  const std::size_t k = i % m;

  // tail_wc of the *next* position (qmin worst-case suffix slack).
  rt::Cycles tail = rt::kNoDeadline;
  if (i + 1 < num_positions()) {
    const std::size_t i2 = i + 1;
    const auto j2 = static_cast<rt::Cycles>(i2 / m);
    const std::size_t k2 = i2 % m;
    const rt::Cycles remaining_iters = body_.iterations - 1 - j2;
    const rt::Cycles drift = std::min<rt::Cycles>(0, body_.period - twc0_);
    tail = (j2 + 1) * body_.period - rwc0_[k2] + remaining_iters * drift;
  }
  const rt::Cycles own_deadline = (j + 1) * body_.period;
  return std::min(own_deadline, tail) - body_.cwc[qi][k];
}

std::size_t PeriodicSlackTables::table_bytes() const {
  // What the embedded artifact persists: per-quality suffix sums of
  // averages, the qmin worst-case suffix sums, per-position worst-case
  // costs, the body order, and four scalars.
  const std::size_t m = body_size();
  const std::size_t nq = body_.qualities.size();
  return nq * (m + 1) * sizeof(rt::Cycles)      // rav_
         + nq * sizeof(rt::Cycles)              // tav_
         + (m + 1) * sizeof(rt::Cycles)         // rwc0_
         + nq * m * sizeof(rt::Cycles)          // cwc rows (for slack_wc)
         + m * sizeof(rt::ActionId)             // body order
         + 4 * sizeof(rt::Cycles);              // period, N, twc0, qmin
}

}  // namespace qosctrl::qos
