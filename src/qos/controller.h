// The QoS controller of Section 2.2.
//
// A controller is consulted once per action: given the elapsed time t
// since the start of the cycle (the paper's cycle-counter register read),
// it returns which action to run next and at which quality level.  The
// caller executes the action, measures its actual cost, and asks again.
//
// Three implementations:
//  * OnlineController  — the abstract algorithm verbatim: per candidate
//    quality q it forms theta_q = theta |>i q, recomputes the EDF
//    schedule alpha_q = Best_Sched(alpha, theta_q, i), and the Quality
//    Manager picks the maximal q with Qual_Const(alpha_q, theta_q, t, i).
//    Handles quality-dependent deadlines.
//  * TableController   — the compiled form produced by the prototype
//    tool: one qos::best_quality query (O(log|Q|)) per step over
//    precomputed slack tables.  Requires quality-independent deadlines;
//    agrees decision-for-decision with OnlineController under that
//    restriction (tested).
//  * ConstantController — the industrial baseline the paper compares
//    against: a fixed quality level and the static EDF order.
//
// DecimatedController wraps any controller and re-decides the quality
// only every `period` actions (holding it in between); period = cycle
// length reproduces the coarse-grain, once-per-cycle control the paper
// contrasts with.
#pragma once

#include <memory>

#include "qos/slack_tables.h"
#include "rt/parameterized_system.h"

namespace qosctrl::qos {

/// One controller decision: run `action` at quality `quality`.
struct Decision {
  rt::ActionId action = -1;
  rt::QualityLevel quality = 0;
};

/// Limits how fast the chosen quality may *rise* across decisions (the
/// paper's smoothness conditions).  Drops are never limited: safety may
/// require falling straight to qmin.
///
/// The bound compares against the choice taken `stride` decisions ago.
/// stride = 1 is per-decision smoothing; for an unrolled iterative body
/// of m actions, stride = m anchors each action to its own previous
/// iteration (e.g. Motion_Estimate to the previous macroblock's), which
/// is the natural notion for the encoder: per-action constraints such
/// as a tight worst case on one action then do not drag down the
/// anchor of the others.
struct SmoothnessPolicy {
  /// Maximum upward step in quality-index units per stride;
  /// negative means unlimited (smoothness disabled).
  int max_step_up = -1;
  /// How many decisions back the anchor sits (>= 1).
  int stride = 1;
};

/// Common controller interface: four calls.  A controller is bound to
/// one parameterized system and walks one cycle (all actions of A) at a
/// time; call start_cycle() to rewind for the next cycle.  Which action
/// comes next is known only from next(): the online controller's
/// schedule depends on the qualities it picks.
class Controller {
 public:
  virtual ~Controller() = default;

  /// Rewinds to step 0 of a fresh cycle.
  virtual void start_cycle() = 0;

  /// True when every action of the cycle has been dispatched.
  virtual bool done() const = 0;

  /// Decides the next action and quality given elapsed cycle time t.
  /// Requires !done().  Advances the step.
  virtual Decision next(rt::Cycles t) = 0;

  /// Feedback hook: the actual cost of the action handed out by the
  /// last next() call.  The base controllers ignore it; learning
  /// controllers (qos::AdaptiveController) refine their average-time
  /// estimates from it.
  virtual void observe(rt::Cycles actual_cost) { (void)actual_cost; }
};

/// The abstract control algorithm (Scheduler + Quality Manager
/// cooperating per Figure 1), recomputing Best_Sched each step.
class OnlineController : public Controller {
 public:
  /// `sys` must outlive the controller.  `soft` selects the
  /// average-only constraint (soft deadlines, Section 4).
  explicit OnlineController(const rt::ParameterizedSystem& sys,
                            SmoothnessPolicy smoothness = {},
                            bool soft = false);

  void start_cycle() override;
  bool done() const override { return i_ >= alpha_.size(); }
  Decision next(rt::Cycles t) override;

  /// The schedule and quality assignment as refined so far.
  const rt::ExecutionSequence& schedule() const { return alpha_; }
  const rt::QualityAssignment& assignment() const { return theta_; }

 private:
  const rt::ParameterizedSystem* sys_;
  SmoothnessPolicy smoothness_;
  bool soft_;
  std::size_t i_ = 0;
  rt::ExecutionSequence alpha_;
  rt::QualityAssignment theta_;
  std::vector<std::size_t> choice_history_;
};

/// The compiled controller: per step, qos::best_quality over the
/// precomputed slack tables.
class TableController : public Controller {
 public:
  /// `tables` is shared so one compiled artifact can drive many
  /// concurrent cycles (e.g. per-frame instances).
  explicit TableController(std::shared_ptr<const SlackTables> tables,
                           SmoothnessPolicy smoothness = {},
                           bool soft = false);

  void start_cycle() override;
  bool done() const override { return i_ >= tables_->num_positions(); }
  Decision next(rt::Cycles t) override;

 private:
  std::shared_ptr<const SlackTables> tables_;
  SmoothnessPolicy smoothness_;
  bool soft_;
  std::size_t i_ = 0;
  std::vector<std::size_t> choice_history_;
};

/// Constant-quality baseline ("standard industrial practice"): static
/// EDF schedule, fixed q, no reaction to elapsed time.
class ConstantController : public Controller {
 public:
  ConstantController(const rt::ParameterizedSystem& sys, rt::QualityLevel q);

  void start_cycle() override { i_ = 0; }
  bool done() const override { return i_ >= alpha_.size(); }
  Decision next(rt::Cycles t) override;

 private:
  rt::QualityLevel q_;
  std::size_t i_ = 0;
  rt::ExecutionSequence alpha_;
};

/// Granularity ablation: take the inner controller's quality only every
/// `period` actions and hold it in between.  The inner controller still
/// decides every step, so the action dispatched is always its action.
class DecimatedController : public Controller {
 public:
  /// `period` >= 1; period == schedule length means one decision per
  /// cycle (coarse-grain control).
  DecimatedController(std::unique_ptr<Controller> inner, std::size_t period);

  void start_cycle() override;
  bool done() const override { return inner_->done(); }
  Decision next(rt::Cycles t) override;

 private:
  std::unique_ptr<Controller> inner_;
  std::size_t period_;
  std::size_t i_ = 0;
  rt::QualityLevel held_quality_ = 0;
};

}  // namespace qosctrl::qos
