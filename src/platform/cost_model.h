// Execution-time substrate: what the paper obtained from the eliXim
// simulator of an 8 GHz XiRisc, we obtain from a calibrated stochastic
// cost model.
//
// The controller never inspects how costs arise — it only reads the
// cycle counter.  So the reproduction is faithful as long as the cost
// source (a) matches the paper's Figure 5 statistics (average and
// worst case per action, Motion_Estimate growing with quality), and
// (b) fluctuates with content the way a real encoder's load does.
//
// CostModel therefore samples:
//     cost = clamp( round(av(action, q) * work * jitter), lo, wc(action, q) )
// where `work` is a content-coupled scale supplied by the caller (e.g.
// proportional to search points actually visited, or residual bits),
// `jitter` is lognormal with unit median, and the clamp enforces the
// C <= Cwc contract that safe control requires.
#pragma once

#include <vector>

#include "rt/types.h"
#include "util/rng.h"

namespace qosctrl::platform {

/// Average / worst-case pair for one action at one quality level.
struct CostSpec {
  rt::Cycles average = 0;
  rt::Cycles worst_case = 0;
};

/// Per-action cost tables over quality levels.
class CostTable {
 public:
  /// `specs[a][qi]`: cost spec for action a at quality index qi.
  /// Quality-independent actions repeat the same spec per qi.
  explicit CostTable(std::vector<std::vector<CostSpec>> specs);

  std::size_t num_actions() const { return specs_.size(); }
  std::size_t num_levels() const {
    return specs_.empty() ? 0 : specs_.front().size();
  }
  const CostSpec& at(rt::ActionId a, std::size_t qi) const;

 private:
  std::vector<std::vector<CostSpec>> specs_;
};

/// Sampling parameters of the stochastic model.
struct CostModelConfig {
  double jitter_sigma = 0.12;  ///< log-space std-dev of the jitter term
  double floor_fraction = 0.25;  ///< lower clamp = floor_fraction * average
};

/// Draws actual execution times consistent with a CostTable.
class CostModel {
 public:
  CostModel(CostTable table, CostModelConfig config, util::Rng rng);

  /// Actual cost of running `a` at quality index `qi` with the given
  /// content-coupled work scale (1.0 = nominal load).  Guaranteed
  /// <= worst_case(a, qi) and >= 0.
  rt::Cycles sample(rt::ActionId a, std::size_t qi, double work_scale = 1.0);

  /// Deterministic accessors used for controller calibration.
  rt::Cycles average(rt::ActionId a, std::size_t qi) const {
    return table_.at(a, qi).average;
  }
  rt::Cycles worst_case(rt::ActionId a, std::size_t qi) const {
    return table_.at(a, qi).worst_case;
  }
  const CostTable& table() const { return table_; }

 private:
  CostTable table_;
  CostModelConfig config_;
  util::Rng rng_;
};

/// Cycles one context switch costs on the virtual processor: saving
/// and restoring the encoder's working set, ~2.5 us at the paper's
/// 8 GHz.  Small next to the 176000-cycle qmin frame worst case, but
/// a preemption bills it twice (switch-out + switch-in), so the
/// preemptive scheduling classes inflate committed costs by it
/// (sched/policy.h) and the farm's data plane charges it on
/// every switch.
inline constexpr rt::Cycles kContextSwitchCycles = 20000;

/// Per-frame cost of hosting a stream away from its preferred
/// processor: the encoder's working set (reference frame rows, slack
/// tables) no longer lives in that processor's cache, so every frame
/// pays a cold-refill surcharge — ~15 us at the paper's 8 GHz, several
/// context switches' worth.  farm::ShardedControlPlane inflates a
/// migrated stream's committed worst-case frame cost by it, which is
/// what makes migration vs local degradation a real trade-off instead
/// of migration always winning.
inline constexpr rt::Cycles kMigrationCycles = 120000;

/// Ceiling on the two overhead costs a caller may configure, the
/// context-switch cost and the migration surcharge: 2^40 cycles, about
/// 137 s at the paper's 8 GHz, already far beyond any frame period.
/// It keeps exact the sums that add an overhead to a frame's
/// worst-case cost: `cost + 2 * context_switch` in
/// sched::inflate_context_switch and `cost + migration_cost` in
/// farm::ShardedControlPlane's placement and split tests.
inline constexpr rt::Cycles kMaxOverheadCycles = rt::Cycles{1} << 40;

/// The paper's Figure 5 tables for the MPEG-4 encoder benchmark:
/// 9 actions (ids follow qosctrl::enc::BodyAction order), 8 quality
/// levels; only Motion_Estimate varies with quality.
CostTable figure5_cost_table();

/// Quality levels used in the paper's experiment: {0, ..., 7}.
std::vector<rt::QualityLevel> figure5_quality_levels();

}  // namespace qosctrl::platform
