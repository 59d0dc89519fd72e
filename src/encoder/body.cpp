#include "encoder/body.h"

#include "util/check.h"

namespace qosctrl::enc {

const char* body_action_name(BodyAction a) {
  switch (a) {
    case BodyAction::kGrabMacroBlock:
      return "Grab_Macro_Block";
    case BodyAction::kMotionEstimate:
      return "Motion_Estimate";
    case BodyAction::kDct:
      return "Discrete_Cosine_Transform";
    case BodyAction::kQuantize:
      return "Quantize";
    case BodyAction::kIntraPredict:
      return "Intra_Predict";
    case BodyAction::kCompress:
      return "Compress";
    case BodyAction::kInverseQuantize:
      return "Inverse_Quantize";
    case BodyAction::kInverseDct:
      return "Inverse_Discrete_Cosine_Transform";
    case BodyAction::kReconstruct:
      return "Reconstruct";
  }
  QC_EXPECT(false, "unknown body action");
}

const char* encode_phase_name(EncodePhase p) {
  switch (p) {
    case EncodePhase::kMotion:
      return "motion";
    case EncodePhase::kDctQuant:
      return "dct_quant";
    case EncodePhase::kReconstruct:
      return "reconstruct";
    case EncodePhase::kEntropy:
      return "entropy";
  }
  QC_EXPECT(false, "unknown encode phase");
}

rt::PrecedenceGraph make_body_graph() {
  rt::PrecedenceGraph g;
  for (int a = 0; a < kNumBodyActions; ++a) {
    g.add_action(body_action_name(static_cast<BodyAction>(a)));
  }
  const auto edge = [&g](BodyAction from, BodyAction to) {
    g.add_edge(id(from), id(to));
  };
  edge(BodyAction::kGrabMacroBlock, BodyAction::kMotionEstimate);
  edge(BodyAction::kMotionEstimate, BodyAction::kIntraPredict);
  edge(BodyAction::kIntraPredict, BodyAction::kDct);
  edge(BodyAction::kDct, BodyAction::kQuantize);
  edge(BodyAction::kQuantize, BodyAction::kCompress);
  edge(BodyAction::kQuantize, BodyAction::kInverseQuantize);
  edge(BodyAction::kInverseQuantize, BodyAction::kInverseDct);
  edge(BodyAction::kInverseDct, BodyAction::kReconstruct);
  return g;
}

}  // namespace qosctrl::enc
