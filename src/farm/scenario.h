// Scenario description for the encoder farm: which streams arrive,
// when, with what geometry, latency contract, and control mode.
//
// A scenario is pure data — the load generator produces one from a
// small config (farm/load_gen.h), tests hand-write them, and the
// simulator (farm/simulator.h) plays one against an admission
// controller and M virtual processors.
#pragma once

#include <vector>

#include "farm/faults.h"
#include "pipeline/simulation.h"
#include "rt/types.h"
#include "sched/policy.h"

namespace qosctrl::farm {

/// One video stream offered to the farm.
struct StreamSpec {
  int id = 0;                 ///< unique, also the RNG fork stream id
  rt::Cycles join_time = 0;   ///< virtual time the stream arrives
  int num_frames = 16;        ///< camera frames the stream will produce

  int width = 64;             ///< luma geometry, multiples of 16
  int height = 48;
  int num_scenes = 2;         ///< scene mix of the synthetic source
  rt::Cycles frame_period = 0;  ///< camera period P; 0 = default pacing
  int buffer_capacity = 1;    ///< K: latency contract is K * P

  pipe::ControlMode mode = pipe::ControlMode::kControlled;
  rt::QualityLevel constant_quality = 3;  ///< for kConstantQuality
  std::uint64_t seed = 0;     ///< 0 = fork from the farm seed by id
};

/// The camera period that paces `macroblocks` MBs at the paper's
/// per-macroblock budget (the single-stream pipeline's default,
/// retargeted to the stream's geometry).
inline rt::Cycles default_frame_period(int macroblocks) {
  return static_cast<rt::Cycles>(19555569) * macroblocks / 99;
}

inline int macroblocks_of(const StreamSpec& s) {
  return (s.width / 16) * (s.height / 16);
}

/// P, defaulted when the spec leaves it 0.
inline rt::Cycles period_of(const StreamSpec& s) {
  return s.frame_period > 0 ? s.frame_period
                            : default_frame_period(macroblocks_of(s));
}

/// The camera rate: `nominal_fps` at the default pacing, nominal_fps / f
/// for a period scaled by f (what rate control and bitrate accounting
/// run at).
inline double frame_rate_of(const StreamSpec& s, double nominal_fps) {
  return nominal_fps *
         static_cast<double>(default_frame_period(macroblocks_of(s))) /
         static_cast<double>(period_of(s));
}

/// The latency contract: frame f (arriving at join + f * P) must be
/// displayed by arrival + K * P.
inline rt::Cycles latency_of(const StreamSpec& s) {
  return period_of(s) * s.buffer_capacity;
}

/// Virtual time after which the stream holds no more commitment (last
/// frame's display deadline).
inline rt::Cycles leave_time_of(const StreamSpec& s) {
  return s.join_time + static_cast<rt::Cycles>(s.num_frames - 1) * period_of(s) +
         latency_of(s);
}

/// Where a placement taking over `s` at instant `t` starts: the index
/// of the first frame arriving strictly after `t` (0 when `t` precedes
/// the join).  When a frame remains, `*resume` becomes `s` cut to the
/// frames from that one on — the continuation the failover path and
/// the rebalancer re-admit.
inline int resume_after(const StreamSpec& s, rt::Cycles t,
                        StreamSpec* resume) {
  const rt::Cycles period = period_of(s);
  const int first =
      t < s.join_time ? 0 : static_cast<int>((t - s.join_time) / period) + 1;
  if (first < s.num_frames) {
    *resume = s;
    resume->join_time += static_cast<rt::Cycles>(first) * period;
    resume->num_frames -= first;
  }
  return first;
}

/// The farm-wide scheduling contract the scenario is played under:
/// which per-processor scheduling class serves frames (and backs the
/// admission demand test), what a context switch costs, and whether
/// admission may renegotiate running streams' budgets.  Part of the
/// scenario — the same offered streams under a different contract is
/// a different experiment.
struct SchedulingSpec {
  sched::PolicyParams policy{};  ///< np (default), preemptive, quantum
  /// When a newcomer would be rejected, shrink running controlled
  /// streams' reserved budgets toward their qmin worst case
  /// (recompiling slack tables from the per-budget cache) to make
  /// room, instead of only degrading the newcomer.
  bool renegotiate = false;
  /// Restore pass: when a stream departs, grow previously-shrunk
  /// incumbents' budgets back up the certified ladder (largest deficit
  /// first, one rung at a time, never past the budget they were
  /// admitted at) while the processor stays schedulable.  Only
  /// meaningful together with renegotiate (nothing shrinks otherwise),
  /// but an independent knob so churn experiments can separate the
  /// two effects.
  bool restore = false;
  /// C=D semi-partitioning: a candidate budget no single processor
  /// can host whole may be split into a zero-slack head piece on one
  /// processor and the remainder (paying the migration surcharge) on
  /// a higher-indexed one, instead of degrading or rejecting the
  /// stream.  See farm/admission.h (Placement::split) and the
  /// handoff data plane in farm/simulator.cpp.
  bool split = false;
};

/// A full offered load: streams sorted by (join_time, id) when played.
struct FarmScenario {
  std::vector<StreamSpec> streams;
  SchedulingSpec sched{};
  /// Injected misbehavior (WCET overruns, processor failures, frame
  /// loss) the run must degrade gracefully under; empty by default.
  FaultSpec faults{};
};

}  // namespace qosctrl::farm
