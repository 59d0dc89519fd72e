// The per-macroblock action body of the MPEG-4 encoder (paper Figure 2).
//
// Nine atomic actions; only Motion_Estimate has quality-dependent
// execution times.  Action ids are fixed and shared with the platform's
// Figure 5 cost table.
//
// Precedence (a hybrid video encoder's natural dataflow):
//
//   Grab_Macro_Block -> Motion_Estimate -> Intra_Predict -> DCT
//     -> Quantize -> { Compress,  Inverse_Quantize -> Inverse_DCT
//     -> Reconstruct }
//
// Intra_Predict sits between motion estimation and the transform
// because it doubles as the inter/intra mode decision: it computes the
// spatial prediction, compares it with the motion-compensated one, and
// fixes the residual the DCT will transform.
#pragma once

#include "rt/precedence_graph.h"
#include "util/check.h"

namespace qosctrl::enc {

/// Body action ids; values match the platform::figure5_cost_table rows.
enum class BodyAction : rt::ActionId {
  kGrabMacroBlock = 0,
  kMotionEstimate = 1,
  kDct = 2,
  kQuantize = 3,
  kIntraPredict = 4,
  kCompress = 5,
  kInverseQuantize = 6,
  kInverseDct = 7,
  kReconstruct = 8,
};

inline constexpr int kNumBodyActions = 9;

/// Display name of a body action (paper spelling).
const char* body_action_name(BodyAction a);

/// Profiling phases: the nine body actions grouped into the four
/// stages an encoder engineer reasons about.  Cycle attribution over
/// these phases (obs/ tracing, per-phase report breakdowns) is
/// virtual-cycle based — a pure function of the cost-model draws, so
/// it stays bit-identical across worker counts and policies.
enum class EncodePhase : int {
  kMotion = 0,       ///< Grab_Macro_Block + Motion_Estimate
  kDctQuant = 1,     ///< DCT + Quantize + their inverses
  kReconstruct = 2,  ///< Intra_Predict (mode decision) + Reconstruct
  kEntropy = 3,      ///< Compress
};

inline constexpr int kNumEncodePhases = 4;

/// Short stable phase name ("motion", "dct_quant", "reconstruct",
/// "entropy") — used by metric names, report keys, and trace tracks.
const char* encode_phase_name(EncodePhase p);

/// The phase a body action's cycles are attributed to.
constexpr EncodePhase phase_of(BodyAction a) {
  switch (a) {
    case BodyAction::kGrabMacroBlock:
    case BodyAction::kMotionEstimate:
      return EncodePhase::kMotion;
    case BodyAction::kDct:
    case BodyAction::kQuantize:
    case BodyAction::kInverseQuantize:
    case BodyAction::kInverseDct:
      return EncodePhase::kDctQuant;
    case BodyAction::kIntraPredict:
    case BodyAction::kReconstruct:
      return EncodePhase::kReconstruct;
    case BodyAction::kCompress:
      return EncodePhase::kEntropy;
  }
  return EncodePhase::kMotion;
}

/// Builds the Figure 2 precedence graph (9 actions, ids as above).
rt::PrecedenceGraph make_body_graph();

/// Convenience: the underlying id of a body action.
constexpr rt::ActionId id(BodyAction a) {
  return static_cast<rt::ActionId>(a);
}

/// Maps an id from the *unrolled* frame graph back to its body action
/// and macroblock index.
struct UnrolledAction {
  int macroblock = 0;
  BodyAction action = BodyAction::kGrabMacroBlock;
};
inline UnrolledAction decode_unrolled(rt::ActionId unrolled_id) {
  QC_EXPECT(unrolled_id >= 0, "invalid unrolled action id");
  return {unrolled_id / kNumBodyActions,
          static_cast<BodyAction>(unrolled_id % kNumBodyActions)};
}

}  // namespace qosctrl::enc
