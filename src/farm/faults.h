// Deterministic fault injection for the encoder farm.
//
// Three fault classes, all seed-forked so a fault scenario is a pure
// function of (FaultSpec, farm seed) — never of the scheduling policy,
// the worker count, or the order encoding happens to interleave:
//
//  * WCET overruns — a frame's service demand is inflated beyond the
//    stream's committed worst case.  The simulator's budget policer
//    cuts the frame off at its commitment (so co-resident streams
//    never pay for the overrun) and then applies the configured
//    policy: conceal the aborted frame, force the stream one certified
//    ladder rung down, or quarantine it after N strikes with
//    re-admission at the qmin rung.
//
//  * Processor failures — a processor halts at an injected instant,
//    either transient (service resumes after `repair` cycles; encoder
//    state is lost, so the first frame after repair is forced intra)
//    or permanent (the control plane re-admits resident streams across
//    the survivors through the control plane's migration and
//    renegotiation machinery).  Failure events are explicit scenario
//    data, not draws: *when* a machine dies is the experiment's
//    choice; what the fleet does about it is what is measured.
//
//  * Frame loss — an encoded frame is dropped after the encoder
//    finishes (a lost network packet / slice).  The decoder conceals
//    by re-displaying the previous output and keeps predicting from
//    that stale reference, so PSNR/SSIM telemetry measures real
//    concealment distortion and its propagation.
//
// Per-frame draws are derived as
//   Rng(fault seed).fork(stream id).fork(frame index)
// with the same fork() discipline as the load generator: forks
// commute and do not advance the parent, so any worker thread — and
// any scheduling policy — sees bit-identical faults.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rt/types.h"
#include "util/rng.h"

namespace qosctrl::farm {

struct FarmScenario;
struct FarmConfig;

/// What the budget policer does with a frame that overruns the
/// stream's committed worst case.  Every policy first cuts the frame
/// off at the commitment — isolation is not optional.
enum class OverrunPolicy {
  kAbortConceal,  ///< drop the cut frame; the viewer sees stale output
  kDowngrade,     ///< also force the stream one certified rung down
  kQuarantine,    ///< after N strikes: suspend, re-admit at qmin
};

const char* overrun_policy_name(OverrunPolicy p);
bool parse_overrun_policy(const char* name, OverrunPolicy* out);

/// WCET-overrun injection: each frame independently inflates its
/// service demand to `factor` times the honest encode cost with
/// probability `probability`.
struct OverrunSpec {
  double probability = 0.0;  ///< per-frame chance of an inflated demand
  double factor = 3.0;       ///< demand multiplier when it fires (> 1)
  OverrunPolicy policy = OverrunPolicy::kAbortConceal;
  /// Policed overruns before quarantine (which lasts
  /// kQuarantinePeriods camera periods, run_queue.cpp).
  int quarantine_strikes = 3;
  bool enabled() const { return probability > 0.0; }
};

/// Post-encode frame loss: each encoded frame is independently lost
/// with probability `probability`; the decoder conceals.
struct LossSpec {
  double probability = 0.0;
  bool enabled() const { return probability > 0.0; }
};

/// One injected processor halt.  `repair` > 0 makes it transient: the
/// processor serves nothing in [time, time + repair) and resumes with
/// encoder state lost.  `repair` == 0 is a permanent failure: resident
/// streams are re-admitted across the survivors.
struct FailureEvent {
  int processor = 0;
  rt::Cycles time = 0;
  rt::Cycles repair = 0;  ///< 0 = permanent
  bool permanent() const { return repair <= 0; }
};

/// The full fault scenario, part of FarmScenario.
struct FaultSpec {
  /// Root of the per-stream fault streams; 0 derives it from the farm
  /// seed, so the same scenario under a different farm seed draws
  /// different faults.
  std::uint64_t seed = 0;
  OverrunSpec overrun{};
  LossSpec loss{};
  std::vector<FailureEvent> failures;
  bool any() const {
    return overrun.enabled() || loss.enabled() || !failures.empty();
  }
};

/// The injected faults of one camera frame.
struct FrameFaults {
  bool overrun = false;  ///< demand inflated by OverrunSpec::factor
  bool lost = false;     ///< encoded output dropped before the decoder
};

/// One stream's fault draws: a pure function of (spec, farm seed,
/// stream id, frame index).  Cheap to construct per stream on any
/// worker thread.
class FaultPlan {
 public:
  FaultPlan(const FaultSpec& faults, std::uint64_t farm_seed, int stream_id);

  /// The draws for camera frame `frame` (const: every call re-derives
  /// the same child stream).
  FrameFaults at(int frame) const;

 private:
  double overrun_p_ = 0.0;
  double loss_p_ = 0.0;
  util::Rng stream_rng_;
};

}  // namespace qosctrl::farm
