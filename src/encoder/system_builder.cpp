#include "encoder/system_builder.h"

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

}  // namespace qosctrl::enc
