#include "farm/faults.h"

#include <cstring>

#include "farm/simulator.h"

namespace qosctrl::farm {
namespace {

/// Fork tag separating the fault-stream family from the per-stream
/// session seeds (which stream_pipeline_config derives as
/// Rng(farm_seed).fork(stream_id)); forks for distinct ids commute, so
/// the two families never collide.
constexpr std::uint64_t kFaultStreamTag = 0xFA17;

}  // namespace

const char* overrun_policy_name(OverrunPolicy p) {
  switch (p) {
    case OverrunPolicy::kAbortConceal:
      return "abort";
    case OverrunPolicy::kDowngrade:
      return "downgrade";
    case OverrunPolicy::kQuarantine:
      return "quarantine";
  }
  return "?";
}

bool parse_overrun_policy(const char* name, OverrunPolicy* out) {
  if (std::strcmp(name, "abort") == 0) {
    *out = OverrunPolicy::kAbortConceal;
  } else if (std::strcmp(name, "downgrade") == 0) {
    *out = OverrunPolicy::kDowngrade;
  } else if (std::strcmp(name, "quarantine") == 0) {
    *out = OverrunPolicy::kQuarantine;
  } else {
    return false;
  }
  return true;
}

FaultPlan::FaultPlan(const FaultSpec& faults, std::uint64_t farm_seed,
                     int stream_id)
    : overrun_p_(faults.overrun.enabled() ? faults.overrun.probability : 0.0),
      loss_p_(faults.loss.enabled() ? faults.loss.probability : 0.0),
      stream_rng_((faults.seed != 0
                       ? util::Rng(faults.seed)
                       : util::Rng(farm_seed).fork(kFaultStreamTag))
                      .fork(static_cast<std::uint64_t>(stream_id))) {}

FrameFaults FaultPlan::at(int frame) const {
  FrameFaults f;
  if (overrun_p_ <= 0.0 && loss_p_ <= 0.0) return f;
  util::Rng r = stream_rng_.fork(static_cast<std::uint64_t>(frame));
  // Fixed draw order: the overrun draw always happens, so enabling
  // loss does not change which frames overrun (and vice versa).
  f.overrun = r.chance(overrun_p_);
  f.lost = r.chance(loss_p_);
  return f;
}

}  // namespace qosctrl::farm
