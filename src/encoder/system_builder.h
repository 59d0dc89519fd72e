// Builds the encoder's parameterized real-time system and compiled
// controller tables for a given frame geometry and time budget — the
// glue between the paper's Figure 5 tables, the Figure 2 body graph,
// and the prototype tool.
#pragma once

#include "platform/cost_model.h"
#include "toolgen/tool.h"

namespace qosctrl::enc {

/// Everything needed to run controlled encoding of one frame geometry.
struct EncoderSystem {
  std::shared_ptr<rt::ParameterizedSystem> system;  ///< unrolled, N MBs
  std::shared_ptr<const qos::SlackTables> tables;   ///< compiled controller
  /// Body-level description (for qos::AdaptiveController, which builds
  /// its compact O(m * |Q|) tables from it); non-null when
  /// budget % macroblocks == 0 (the default pipeline geometry
  /// guarantees it).
  std::shared_ptr<const qos::PeriodicBody> body;
  int macroblocks = 0;
  rt::Cycles budget = 0;  ///< frame budget the deadlines were paced to
};

/// Builds the unrolled system for `macroblocks` iterations of the body,
/// with Figure 5 execution times and evenly paced deadlines that
/// exhaust `budget` cycles at the last macroblock.
EncoderSystem build_encoder_system(int macroblocks, rt::Cycles budget,
                                   const platform::CostTable& costs);

}  // namespace qosctrl::enc
