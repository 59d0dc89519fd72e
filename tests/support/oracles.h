// Test oracles: slow, plainly correct references that the tests and
// bench_micro check the library against, and the fixtures that build
// their inputs.  Nothing the farm runs calls them, so they live out of
// the library, in the qosctrl_test_support target.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "farm/faults.h"
#include "farm/simulator.h"
#include "media/frame.h"
#include "media/yuv.h"
#include "sched/np_edf.h"

namespace qosctrl::media {

/// Clamped read: coordinates outside the plane are clamped to the
/// border, the rule a filled margin replicates.
Sample at_clamped(const Plane& plane, int x, int y);

/// A copy of `frame` with a `pad`-sample margin, border filled: the
/// luma of a reference picture with that content.
Frame with_margin(const Frame& frame, int pad = kLumaPad);

/// Double-precision 8x8 DCT pair: the original implementation, the
/// oracle for the fixed-point kernels and the ref side of bench_micro.
Coeffs8 forward_dct8_ref(const Block8& block);
Block8 inverse_dct8_ref(const Coeffs8& coeffs);

}  // namespace qosctrl::media

namespace qosctrl::quality {

/// Sum of squared errors over two equal-geometry planes, one sample at
/// a time (margins are not counted): the reference quality::measure's
/// block-moment SSE is checked against.
std::int64_t frame_sse_ref(const media::Plane& a, const media::Plane& b);

/// PSNR of frame_sse_ref through quality::psnr_from_sse; identical
/// planes yield `cap`.
double psnr_ref(const media::Plane& a, const media::Plane& b,
                double cap = 99.0);

}  // namespace qosctrl::quality

namespace qosctrl::sched {

/// Processor-demand criterion with the blocking term capped at
/// `max_blocking` (sched/np_edf.h): 0 = fully preemptive EDF,
/// kUncappedBlocking = non-preemptive EDF, a quantum length between.
/// The empty set is schedulable.  Requires cost >= 0, period > 0 for
/// every task; a task with cost > deadline is trivially
/// unschedulable.  Subject to the scan caps kEdfMaxBusyIterations and
/// kEdfMaxCheckPoints.  The exact scan the QPA fast path is checked
/// against.
bool edf_demand_schedulable(const std::vector<NpTask>& tasks,
                            rt::Cycles max_blocking);

}  // namespace qosctrl::sched

namespace qosctrl::farm {

/// The full injected-fault trace of a scenario as text, one line per
/// faulted frame plus one per failure event.  A pure function of
/// (scenario streams, faults, farm seed) — tests pin that it is
/// byte-identical across worker counts and scheduling policies.
std::string fault_trace(const FarmScenario& scenario,
                        const FarmConfig& config);

}  // namespace qosctrl::farm
