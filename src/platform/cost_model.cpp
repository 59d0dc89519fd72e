#include "platform/cost_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace qosctrl::platform {

CostTable::CostTable(std::vector<std::vector<CostSpec>> specs)
    : specs_(std::move(specs)) {
  QC_EXPECT(!specs_.empty(), "cost table must cover at least one action");
  const std::size_t nq = specs_.front().size();
  QC_EXPECT(nq > 0, "cost table must cover at least one quality level");
  for (const auto& row : specs_) {
    QC_EXPECT(row.size() == nq, "ragged cost table");
    for (const auto& s : row) {
      QC_EXPECT(s.average >= 0 && s.average <= s.worst_case,
                "cost spec requires 0 <= average <= worst_case");
    }
  }
}

const CostSpec& CostTable::at(rt::ActionId a, std::size_t qi) const {
  QC_EXPECT(a >= 0 && static_cast<std::size_t>(a) < specs_.size(),
            "action id out of range for cost table");
  QC_EXPECT(qi < specs_.front().size(),
            "quality index out of range for cost table");
  return specs_[static_cast<std::size_t>(a)][qi];
}

CostModel::CostModel(CostTable table, CostModelConfig config, util::Rng rng)
    : table_(std::move(table)), config_(config), rng_(rng) {
  QC_EXPECT(config_.jitter_sigma >= 0.0, "jitter sigma must be >= 0");
}

rt::Cycles CostModel::sample(rt::ActionId a, std::size_t qi,
                             double work_scale) {
  QC_EXPECT(work_scale >= 0.0, "work scale must be >= 0");
  const CostSpec& spec = table_.at(a, qi);
  if (spec.worst_case == spec.average) {
    // Deterministic action (e.g. the paper's DCT with av == wc): only
    // the content scale applies, capped by the worst case.
    const double v = static_cast<double>(spec.average) * work_scale;
    return std::min<rt::Cycles>(spec.worst_case,
                                static_cast<rt::Cycles>(std::llround(v)));
  }
  // Unit-mean lognormal jitter: exp(N(-s^2/2, s)).
  const double sigma = config_.jitter_sigma;
  const double jitter =
      sigma > 0.0 ? rng_.lognormal(-0.5 * sigma * sigma, sigma) : 1.0;
  const double raw = static_cast<double>(spec.average) * work_scale * jitter;
  const auto lo = static_cast<rt::Cycles>(
      std::llround(kFloorFraction * static_cast<double>(spec.average)));
  const auto v = static_cast<rt::Cycles>(std::llround(raw));
  return std::clamp<rt::Cycles>(v, lo, spec.worst_case);
}

CostTable figure5_cost_table() {
  // Paper Figure 5.  Action order must match enc::BodyAction:
  //   0 Grab_Macro_Block, 1 Motion_Estimate, 2 Discrete_Cosine_Transform,
  //   3 Quantize, 4 Intra_Predict, 5 Compress, 6 Inverse_Quantize,
  //   7 Inverse_Discrete_Cosine_Transform, 8 Reconstruct.
  auto constant = [](rt::Cycles av, rt::Cycles wc) {
    return std::vector<CostSpec>(8, CostSpec{av, wc});
  };
  std::vector<std::vector<CostSpec>> specs;
  specs.push_back(constant(12000, 24000));  // Grab_Macro_Block
  specs.push_back({
      // Motion_Estimate, quality levels 0..7
      CostSpec{215, 1000},
      CostSpec{30000, 100000},
      CostSpec{50000, 200000},
      CostSpec{95000, 350000},
      CostSpec{110000, 500000},
      CostSpec{120000, 1200000},
      CostSpec{150000, 1200000},
      CostSpec{200000, 1500000},
  });
  specs.push_back(constant(16000, 16000));  // Discrete_Cosine_Transform
  specs.push_back(constant(6000, 13000));   // Quantize
  specs.push_back(constant(4000, 4000));    // Intra_Predict
  specs.push_back(constant(5000, 50000));   // Compress
  specs.push_back(constant(4000, 5000));    // Inverse_Quantize
  specs.push_back(constant(20000, 50000));  // Inverse_DCT
  specs.push_back(constant(10000, 13000));  // Reconstruct
  return CostTable(std::move(specs));
}

std::vector<rt::QualityLevel> figure5_quality_levels() {
  return {0, 1, 2, 3, 4, 5, 6, 7};
}

}  // namespace qosctrl::platform
