// The data plane's run-queue engine (internal to src/farm/): plays one
// virtual processor's assigned stream segments under the scenario's
// scheduling policy, faults and outages (see farm/simulator.h), and
// records every event through the processor's Probe.
#pragma once

#include <limits>
#include <vector>

#include "farm/simulator.h"

namespace qosctrl::farm {

class Probe;

inline constexpr rt::Cycles kNever = std::numeric_limits<rt::Cycles>::max();

/// The session config a StreamSpec expands to.  Seeds (cost jitter and
/// video content) are forked from the farm seed by stream id, so any
/// worker thread gets the same one.  `nominal_fps` is the camera rate
/// at the default pacing (see frame_rate_of).
pipe::PipelineConfig stream_pipeline_config(const StreamSpec& spec,
                                            std::uint64_t farm_seed,
                                            double nominal_fps);

/// A processor outage, down for t in [start, end); end == kNever when
/// permanent.  Arrivals test against these precomputed windows, never
/// against simulation state, so the event order at the boundary
/// instants cannot change what they see.
struct Window {
  rt::Cycles start = 0;
  rt::Cycles end = kNever;
};

/// Per-segment tallies the data plane writes and stitch folds into the
/// StreamOutcome.  Start lags live in the records: every frame the data
/// plane dispatched keeps its encoder bits (> 0) and its start_lag in
/// its final record, whatever became of it afterwards.
struct SegmentResult {
  int display_misses = 0;
  StreamFaultStats faults;
  /// First on-time completion of a delivered frame (-1: none); a
  /// failover segment recovers at first_ontime - failure time.
  rt::Cycles first_ontime = -1;
};

/// A frame a C=D head encoded and handed to its tail; the record is
/// final, and the tail serves the rest and does the display accounting.
struct HandoffEntry {
  int frame = 0;
  rt::Cycles arrival = 0;  ///< camera arrival (latency measured from it)
  /// When the tail job becomes ready: arrival + C1 (the head deadline),
  /// which keeps tail releases periodic as the admission test assumed,
  /// or the head's actual completion if later, so the handoff is causal.
  rt::Cycles release = 0;
  rt::Cycles deadline = 0;  ///< display deadline (tail's EDF key)
  rt::Cycles demand = 0;    ///< service cycles still owed by the tail
  pipe::FrameRecord rec{};
};

/// One stream segment (base placement or failover) on a processor's
/// run queue.  Segments of one stream cover disjoint frame ranges of
/// its records, so workers never race.  A C=D segment is a head
/// (split_head > 0) and a tail relay (handoff_in) sharing records and
/// res, run one level apart by the pool, so the sharing is sequential.
struct Assignment {
  const StreamSpec* spec = nullptr;
  const std::vector<BudgetEpoch>* epochs = nullptr;  ///< the segment's
  int first_frame = 0;
  int end_frame = 0;  ///< one past the last frame this segment serves
  pipe::FrameRecord* records = nullptr;  ///< the stream's full array
  SegmentResult* res = nullptr;
  const std::vector<CertifiedRung>* ladder = nullptr;  ///< null: none
  /// The head's committed zero-slack budget C1; its EDF deadline is
  /// arrival + C1, not the display deadline.
  rt::Cycles split_head = 0;
  std::vector<HandoffEntry>* handoff_out = nullptr;       ///< head side
  const std::vector<HandoffEntry>* handoff_in = nullptr;  ///< tail side
};

/// Simulates one processor's run queue to completion, writing frame
/// records back through `assigned` and recording through `probe`,
/// which also keeps the processor's tallies.
void run_processor(const FarmConfig& config, const SchedulingSpec& sched,
                   const FaultSpec& fault_spec,
                   const std::vector<Window>& windows,
                   const std::vector<Assignment>& assigned, Probe& probe);

}  // namespace qosctrl::farm
