#include "encoder/system_builder.h"

#include <cmath>
#include <vector>

#include "encoder/body.h"
#include "util/check.h"

namespace qosctrl::enc {

EncoderSystem build_encoder_system(int macroblocks, rt::Cycles budget,
                                   const platform::CostTable& costs) {
  QC_EXPECT(macroblocks >= 1, "at least one macroblock required");
  QC_EXPECT(budget > 0, "frame budget must be positive");
  QC_EXPECT(costs.num_actions() == kNumBodyActions,
            "cost table must cover the nine body actions");

  toolgen::ToolInput input;
  input.body = make_body_graph();
  input.iterations = macroblocks;
  const std::size_t nq = costs.num_levels();
  for (std::size_t qi = 0; qi < nq; ++qi) {
    input.qualities.push_back(static_cast<rt::QualityLevel>(qi));
  }
  input.times.resize(nq);
  for (std::size_t qi = 0; qi < nq; ++qi) {
    input.times[qi].resize(kNumBodyActions);
    for (int a = 0; a < kNumBodyActions; ++a) {
      const platform::CostSpec& s = costs.at(a, qi);
      input.times[qi][static_cast<std::size_t>(a)] =
          toolgen::TimeEntry{s.average, s.worst_case};
    }
  }
  input.deadline = toolgen::evenly_paced_deadlines(budget, macroblocks);

  const toolgen::ToolOutput out = toolgen::run_tool(input);
  EncoderSystem sys;
  sys.system = out.system;
  sys.tables = out.tables;
  if (budget % macroblocks == 0) {
    sys.body = std::make_shared<const qos::PeriodicBody>(
        toolgen::make_periodic_body(input, budget));
  }
  sys.macroblocks = macroblocks;
  sys.budget = budget;
  return sys;
}

platform::CostTable scale_cost_table(const platform::CostTable& table,
                                     double factor) {
  QC_EXPECT(factor > 0.0, "scale factor must be positive");
  std::vector<std::vector<platform::CostSpec>> specs;
  for (std::size_t a = 0; a < table.num_actions(); ++a) {
    std::vector<platform::CostSpec> row;
    for (std::size_t qi = 0; qi < table.num_levels(); ++qi) {
      const platform::CostSpec& s =
          table.at(static_cast<rt::ActionId>(a), qi);
      row.push_back(platform::CostSpec{
          static_cast<rt::Cycles>(std::llround(
              static_cast<double>(s.average) * factor)),
          static_cast<rt::Cycles>(std::llround(
              static_cast<double>(s.worst_case) * factor))});
    }
    specs.push_back(std::move(row));
  }
  return platform::CostTable(std::move(specs));
}

}  // namespace qosctrl::enc
