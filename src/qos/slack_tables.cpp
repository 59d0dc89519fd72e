#include "qos/slack_tables.h"

#include <algorithm>

#include "sched/edf.h"
#include "util/check.h"

namespace qosctrl::qos {

using rt::Cycles;

SlackTables SlackTables::build(const rt::ParameterizedSystem& sys) {
  QC_EXPECT(sys.validate().empty(),
            "parameterized system violates Definition 2.3");
  QC_EXPECT(sys.deadlines_quality_independent(),
            "slack tables require quality-independent deadlines");

  SlackTables out;
  out.qualities_ = sys.quality_levels();
  const rt::DeadlineFunction d = sys.deadline_of(sys.qmin());
  out.alpha_ = sched::edf_schedule(sys.graph(), d);

  const std::size_t n = out.alpha_.size();
  const std::size_t nq = out.qualities_.size();
  out.av_.assign(n, std::vector<Cycles>(nq, 0));
  out.wc_.assign(n, std::vector<Cycles>(nq, 0));

  // tail_wc[i] = min_{j>=i} (D(alpha(j)) - sum_{k=i..j} Cwc_qmin(alpha(k)))
  // computed with tail_wc[n] = +inf by the same backward recurrence as
  // the av table.
  std::vector<Cycles> tail_wc(n + 1, rt::kNoDeadline);
  const rt::QualityLevel qmin = sys.qmin();
  for (std::size_t i = n; i-- > 0;) {
    const rt::ActionId a = out.alpha_[i];
    tail_wc[i] = std::min(d(a), tail_wc[i + 1]) - sys.cwc(qmin, a);
    tail_wc[i] = std::min(tail_wc[i], rt::kNoDeadline);
  }

  for (std::size_t qi = 0; qi < nq; ++qi) {
    const rt::QualityLevel q = out.qualities_[qi];
    Cycles av_suffix = rt::kNoDeadline;  // slack_av[i+1][qi]
    for (std::size_t i = n; i-- > 0;) {
      const rt::ActionId a = out.alpha_[i];
      av_suffix = std::min(d(a), av_suffix) - sys.cav(q, a);
      av_suffix = std::min(av_suffix, rt::kNoDeadline);
      out.av_[i][qi] = av_suffix;
      out.wc_[i][qi] =
          std::min(std::min(d(a), tail_wc[i + 1]), rt::kNoDeadline) -
          sys.cwc(q, a);
    }
  }

  // Predicted quality ceiling: walk the schedule at qmin worst case
  // until the first action whose cost depends on the quality level,
  // and ask the tables for the best level grantable there.  Bodies
  // with no quality-sensitive action can always run at qmax.
  out.ceiling_hard_ = out.ceiling_soft_ = nq - 1;
  Cycles elapsed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const rt::ActionId a = out.alpha_[i];
    bool sensitive = false;
    for (std::size_t qi = 1; qi < nq; ++qi) {
      if (sys.cwc(out.qualities_[qi], a) != sys.cwc(qmin, a) ||
          sys.cav(out.qualities_[qi], a) != sys.cav(qmin, a)) {
        sensitive = true;
        break;
      }
    }
    if (sensitive) {
      out.ceiling_hard_ = best_quality(out, i, nq - 1, elapsed, false);
      out.ceiling_soft_ = best_quality(out, i, nq - 1, elapsed, true);
      break;
    }
    elapsed += sys.cwc(qmin, a);
  }
  return out;
}

std::size_t SlackTables::table_bytes() const {
  std::size_t bytes = alpha_.size() * sizeof(rt::ActionId) +
                      qualities_.size() * sizeof(rt::QualityLevel);
  for (const auto& row : av_) bytes += row.size() * sizeof(Cycles);
  for (const auto& row : wc_) bytes += row.size() * sizeof(Cycles);
  return bytes;
}

}  // namespace qosctrl::qos
