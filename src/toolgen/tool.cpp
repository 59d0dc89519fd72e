#include "toolgen/tool.h"

#include <algorithm>
#include <limits>

#include "sched/edf.h"
#include "util/check.h"

namespace qosctrl::toolgen {

std::string range_error(const ToolInput& input) {
  const auto m = static_cast<rt::ActionId>(input.body.num_actions());
  if (input.iterations > std::numeric_limits<rt::ActionId>::max() / m) {
    return "iterations x actions exceeds the action id range";
  }
  // A Cwc may be up to INT64_MAX: the sum saturates just past
  // kNoDeadline instead of overflowing.
  constexpr rt::Cycles kPast = rt::kNoDeadline + 1;
  rt::Cycles body_wc = 0;
  for (const TimeEntry& e : input.times.back()) {
    body_wc = std::min(kPast, body_wc + std::min(kPast, e.worst_case));
  }
  if (body_wc > rt::kNoDeadline / input.iterations) {
    return "iterations x the summed worst case at the top level exceeds " +
           std::to_string(rt::kNoDeadline) + " cycles";
  }
  return "";
}

ToolOutput run_tool(const ToolInput& input) {
  const std::size_t m = input.body.num_actions();
  QC_EXPECT(m > 0, "body graph is empty");
  QC_EXPECT(input.body.is_acyclic(), "body graph must be a DAG");
  QC_EXPECT(input.iterations >= 1, "iteration count must be >= 1");
  QC_EXPECT(!input.qualities.empty(), "quality set must be non-empty");
  QC_EXPECT(input.times.size() == input.qualities.size(),
            "one time table per quality level required");
  for (const auto& row : input.times) {
    QC_EXPECT(row.size() == m, "time table must cover every body action");
  }
  QC_EXPECT(static_cast<bool>(input.deadline),
            "deadline assignment must be callable");
  const std::string range = range_error(input);
  QC_EXPECT(range.empty(), range.c_str());

  rt::PrecedenceGraph unrolled = input.body.unroll(input.iterations);
  auto system = std::make_shared<rt::ParameterizedSystem>(
      std::move(unrolled), input.qualities);

  for (int j = 0; j < input.iterations; ++j) {
    for (std::size_t k = 0; k < m; ++k) {
      const auto body_a = static_cast<rt::ActionId>(k);
      const auto id =
          static_cast<rt::ActionId>(j * static_cast<int>(m) + static_cast<int>(k));
      for (std::size_t qi = 0; qi < input.qualities.size(); ++qi) {
        const TimeEntry& e = input.times[qi][k];
        system->set_times(input.qualities[qi], id, e.average, e.worst_case);
      }
      system->set_deadline_all_q(id, input.deadline(j, body_a));
    }
  }

  const std::string why = system->validate();
  QC_EXPECT(why.empty(), why.empty() ? "" : why.c_str());

  // Problem precondition (Section 2.1): the set of feasible schedules
  // w.r.t. Cwc_qmin and Dqmin must be non-empty.
  QC_EXPECT(sched::schedulable(system->graph(), system->cwc_of(system->qmin()),
                               system->deadline_of(system->qmin())),
            "system is not schedulable even at minimum quality and WCET");

  ToolOutput out;
  out.tables = std::make_shared<const qos::SlackTables>(
      qos::SlackTables::build(*system));
  out.system = std::move(system);
  return out;
}

qos::PeriodicBody make_periodic_body(const ToolInput& input,
                                     rt::Cycles budget) {
  const std::size_t m = input.body.num_actions();
  QC_EXPECT(m > 0 && input.body.is_acyclic(), "body must be a non-empty DAG");
  QC_EXPECT(input.iterations >= 1, "iteration count must be >= 1");
  QC_EXPECT(budget > 0 && budget % input.iterations == 0,
            "compact tables require budget divisible by the iteration "
            "count (uniform per-iteration period)");
  QC_EXPECT(input.times.size() == input.qualities.size(),
            "one time table per quality level required");

  qos::PeriodicBody body;
  // All actions of an iteration share one deadline, so the body EDF
  // order is the deadline-free EDF order (ties broken by id).
  const rt::DeadlineFunction uniform(m, rt::kNoDeadline);
  body.order = sched::edf_schedule(input.body, uniform);
  body.qualities = input.qualities;
  body.period = budget / input.iterations;
  body.iterations = input.iterations;
  body.cav.resize(input.qualities.size());
  body.cwc.resize(input.qualities.size());
  for (std::size_t qi = 0; qi < input.qualities.size(); ++qi) {
    QC_EXPECT(input.times[qi].size() == m,
              "time table must cover every body action");
    for (std::size_t k = 0; k < m; ++k) {
      const TimeEntry& e =
          input.times[qi][static_cast<std::size_t>(body.order[k])];
      body.cav[qi].push_back(e.average);
      body.cwc[qi].push_back(e.worst_case);
    }
  }
  return body;
}

std::function<rt::Cycles(int, rt::ActionId)> evenly_paced_deadlines(
    rt::Cycles budget, int iterations) {
  QC_EXPECT(budget > 0 && budget < rt::kNoDeadline,
            "budget must be positive and below kNoDeadline");
  QC_EXPECT(iterations >= 1, "iteration count must be >= 1");
  // budget * (copy + 1) / iterations, split so that no product
  // exceeds budget or iterations^2.
  return [budget, iterations](int copy, rt::ActionId) {
    const rt::Cycles k = copy + 1;
    return budget / iterations * k + budget % iterations * k / iterations;
  };
}

}  // namespace qosctrl::toolgen
