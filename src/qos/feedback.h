// Feedback-scheduling baseline (related work): a PID controller on
// budget utilization in the style of Lu, Stankovic, Tao, Son,
// "Feedback control real-time scheduling" (Real-Time Systems Journal,
// 2002), which the paper cites as the state of the art it improves on:
// coarse-grain reaction and, crucially, "deadline misses remain
// possible".
//
// The controller picks ONE quality level per cycle, from the PID of the
// utilization error of past cycles (kFeedbackSetpoint, slightly below
// 1.0), and holds it for the whole cycle.  It never looks at the
// precomputed slack tables and has no worst-case safety term, so it
// reproduces the class of behavior the paper argues against: smooth in
// steady state, but late by at least one full cycle after every load
// change — which the granularity/baseline benches turn into measurable
// misses.
#pragma once

#include <memory>

#include "qos/controller.h"
#include "rt/parameterized_system.h"

namespace qosctrl::qos {

/// The budget utilization the PID steers toward.
inline constexpr double kFeedbackSetpoint = 0.9;

/// Per-cycle PID quality selection over a static EDF schedule.
class FeedbackController : public Controller {
 public:
  /// `budget` is the cycle budget the utilization is measured against.
  FeedbackController(const rt::ParameterizedSystem& sys, rt::Cycles budget);

  void start_cycle() override;
  bool done() const override { return i_ >= alpha_.size(); }
  Decision next(rt::Cycles t) override;
  void observe(rt::Cycles actual_cost) override;

  rt::QualityLevel current_level() const { return levels_[level_index_]; }

 private:
  rt::Cycles budget_;
  std::vector<rt::QualityLevel> levels_;
  rt::ExecutionSequence alpha_;
  std::size_t i_ = 0;
  std::size_t level_index_;
  // PID state over cycles.
  double integral_ = 0.0;
  double previous_error_ = 0.0;
  bool first_cycle_ = true;
  rt::Cycles cycle_cost_ = 0;
};

}  // namespace qosctrl::qos
