// The encoder-farm simulator: plays a FarmScenario against an
// admission controller and M virtual processors.
//
// Two planes, mirroring a real ingest tier:
//
//  * Control plane (sequential): a global event queue interleaves
//    stream joins, leaves, and injected permanent processor failures
//    in virtual-time order.  Each join asks the ShardedControlPlane
//    for a placement (preferred processor = least committed load);
//    each leave releases its commitment.  A permanent failure marks
//    the processor dead and re-admits its resident streams across the
//    survivors through the same migration-cost and renegotiation
//    machinery (each re-admission opens a *failover segment* of the
//    stream's life).  The outcome is a static assignment of stream
//    segments to processors — placement never depends on how encoding
//    happens to interleave, only on committed worst cases, so it is
//    exactly reproducible.
//
//  * Data plane (parallel): every processor owns a run queue and is
//    simulated independently — a single-server discrete-event loop
//    interleaving its streams' frame arrivals (camera-drop skips when
//    a stream's input buffer is full) with EDF service by display
//    deadline under the scenario's scheduling policy: non-preemptive
//    (run to completion), fully preemptive (suspend/resume of the
//    in-flight frame with cycle-accurate remaining-work accounting
//    and a context-switch charge per switch), or quantum-sliced
//    (preemption only at quantum boundaries).  One host worker thread
//    per processor (up to FarmConfig::workers); since processors
//    share no mutable state and every stream's RNG is forked from the
//    farm seed by stream id, results are bit-identical for any worker
//    count and any policy.
//
//    C=D split streams (SchedulingSpec::split) are served by *two*
//    cooperating run queues: the head piece encodes the frame and
//    serves at most C1 cycles under its zero-slack head deadline,
//    then hands the remaining demand to a session-less relay on the
//    (always higher-indexed) tail processor, which finishes the
//    service and decides the display-deadline verdict.  The worker
//    pool runs processors in dependency levels — every head processor
//    completes before any tail processor reading its handoff buffer
//    starts — so the handoff is deterministic and lock-free; with no
//    splits there is a single level and the pool behaves exactly as
//    before.
//
//    With a FaultSpec (farm/faults.h) the data plane additionally
//    runs a *budget policer*: a frame whose injected demand exceeds
//    the stream's committed worst case is cut off at the commitment
//    (co-resident streams never pay for an overrun) and the overrun
//    policy decides what happens to the offender — conceal, forced
//    ladder downgrade, or quarantine with re-entry at qmin.  Injected
//    processor blackouts lose in-flight and queued frames; post-encode
//    loss routes through the decoder-side concealment chain
//    (pipe::StreamSession::deliver/lose/drop), so PSNR/SSIM measure
//    what a viewer displays.
//
//    Event ordering at equal instants is fixed (completions, then
//    blackout transitions, then arrivals, then preemption/dispatch
//    decisions), so a run is a pure function of (scenario, config).
#pragma once

#include <vector>

#include "farm/admission.h"
#include "farm/faults.h"
#include "farm/scenario.h"
#include "farm/shard.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "pipeline/simulation.h"

namespace qosctrl::farm {

struct FarmConfig {
  int num_processors = 2;
  /// Host threads for the data plane (clamped to [1, processors]).
  int workers = 1;
  AdmissionConfig admission{};
  /// Control-plane shards: contiguous processor ranges, each deciding
  /// its own admissions behind a router (farm/shard.h).  1 (the
  /// default) is one range over the whole fleet.
  int shards = 1;
  /// Extra shards the router probes after the preferred one rejects.
  int probe_shards = 1;
  /// Rebalancer watermark: after each join batch, migrate streams off
  /// any shard whose utilization headroom (1 - hottest processor's
  /// committed utilization) fell below this; 0 disables rebalancing.
  double rebalance_watermark = 0.0;
  /// Control-epoch length in cycles: joins landing in the same epoch
  /// window are accounted as one batch (admission decisions are
  /// unchanged — the epoch sets the rebalancing cadence and the storm
  /// accounting); 0 batches per join.
  rt::Cycles control_epoch = 0;
  /// Farm-wide seed; per-stream seeds are forked from it by stream id.
  std::uint64_t seed = 2026;
  /// Camera rate at the *default* pacing; a stream whose period is
  /// scaled by factor f runs (and accounts bitrate) at frame_rate / f.
  double frame_rate = 25.0;
  /// Record a schedule trace (obs/trace.h).  Off by default: with
  /// trace == false each processor's probe holds no trace buffer and
  /// skips the write, so the hot loop pays nothing.
  bool trace = false;
  /// Events retained per per-processor ring buffer when tracing.  On
  /// overflow the oldest events are dropped (counted in
  /// FarmResult::trace_dropped), never silently and never unbounded.
  int trace_buffer_capacity = 1 << 16;
  /// Time-series window width in simulated cycles (obs/timeseries.h),
  /// >= 0.  0 (the default) disables sampling: like the trace, the
  /// probes then hold no series recorder and skip every sample.
  rt::Cycles ts_window = 0;
  /// Declarative objectives evaluated over the windowed series after
  /// the run (obs/slo.h).  Windowed metrics need ts_window > 0;
  /// recovery_latency budgets evaluate against the failure outcomes
  /// either way.  Burn-rate alerts land in the trace when tracing.
  std::vector<obs::SloSpec> slos;
};

/// Per-stream fault accounting, summed over the stream's segments
/// (and, in FarmResult::faults_total, over the fleet).
struct StreamFaultStats {
  int overruns_injected = 0;  ///< frames whose demand was inflated
  int overruns_policed = 0;   ///< inflated frames cut at the commitment
  int aborted_frames = 0;     ///< cut frames concealed by the policer
  int forced_downgrades = 0;  ///< ladder steps imposed by the policer
  int quarantines = 0;        ///< times the stream entered quarantine
  int quarantine_drops = 0;   ///< frames dropped while quarantined
  int lost_frames = 0;        ///< post-encode losses (loss injection)
  int failure_drops = 0;      ///< frames lost to a processor blackout
};

/// One re-admission of a stream displaced mid-life: by a permanent
/// processor failure (failure_index >= 0 — the control plane releases
/// the dead processor's commitment and admits a phase-aligned
/// continuation, same id, same contract, first unserved frame onward,
/// on a survivor), or by the shard rebalancer (failure_index == -1 —
/// the same continuation split, moved to a colder shard).
struct FailoverSegment {
  int failure_index = -1;    ///< index into FaultSpec::failures;
                             ///< -1 for a rebalancer migration
  rt::Cycles from_time = 0;  ///< the displacement instant
  int first_frame = 0;       ///< first camera frame this segment serves
  Placement placement;       ///< the new admission verdict
  /// Budget history of this segment (initial re-admission epoch plus
  /// any later renegotiations).
  std::vector<BudgetEpoch> epochs;
};

/// Everything that happened to one offered stream.
struct StreamOutcome {
  StreamSpec spec;
  Placement placement;
  /// Reserved-budget history of the stream's *initial* placement: the
  /// admission opens the first epoch; every renegotiation before a
  /// failover appends one.  Empty when rejected.
  std::vector<BudgetEpoch> epochs;
  /// Failover segments, one per re-admission after a permanent
  /// processor failure (empty when the hosting processor never died).
  std::vector<FailoverSegment> failover;
  /// True when a later newcomer shrank this stream's budget.
  bool renegotiated = false;
  /// True when a departure's restore pass grew it back up the ladder.
  bool restored = false;
  /// Per-frame records and aggregates (empty when rejected).
  pipe::PipelineResult result;
  /// Frames whose encoding finished past arrival + K * P (concealed
  /// frames are not counted — the viewer saw stale output instead).
  int display_misses = 0;
  rt::Cycles max_start_lag = 0;   ///< worst queueing delay observed
  double mean_start_lag = 0.0;    ///< over encoded frames
  /// 95th-percentile start lag over encoded frames (sorted ascending,
  /// index floor(0.95 * (n - 1))) — the latency tail qoseval's fused
  /// score discounts by.
  rt::Cycles start_lag_p95 = 0;
  StreamFaultStats faults;        ///< zero without a FaultSpec
};

/// One processor's run: the tallies its probe kept (farm/probe.h),
/// then the control plane's failure and peak.
struct ProcessorOutcome {
  rt::Cycles busy_cycles = 0;   ///< cycles spent encoding
  rt::Cycles span_cycles = 0;   ///< last completion time
  int frames_encoded = 0;
  int streams_hosted = 0;       ///< stream segments assigned
  double peak_committed_utilization = 0.0;
  int preemptions = 0;          ///< in-flight frames suspended
  /// Context-switch cycles charged (2x context_switch_cost per
  /// preemption: switch-out plus the later switch-in).
  rt::Cycles overhead_cycles = 0;
  bool failed = false;          ///< permanently halted by a FailureEvent
  rt::Cycles failed_at = -1;    ///< halt instant (-1 when never)
  /// Frames concealed because this processor was dead or blacked out
  /// (in-flight, queued, and arriving during the outage).
  int fault_conceals = 0;

  /// Busy (service only) / span; 0 before the first completion.
  double utilization() const {
    return span_cycles > 0 ? static_cast<double>(busy_cycles) / span_cycles
                           : 0.0;
  }
};

/// Per-shard control-plane accounting (one entry per configured
/// shard; a single entry when the plane is unsharded).
struct ShardOutcome : ShardStats {
  int first_processor = 0;  ///< global index of the shard's first processor
  int num_processors = 0;
  double peak_committed_utilization = 0.0;
};

/// What one injected FailureEvent did to the fleet (transient events
/// are echoed with zero displacement — they never touch admission).
struct FailureOutcome {
  FailureEvent event{};
  int displaced = 0;   ///< resident streams when the processor died
  int readmitted = 0;  ///< re-admitted on survivors (failover segments)
  int dropped = 0;     ///< no survivor could host them
  int recovered = 0;   ///< re-admitted streams that met a deadline again
  /// Failure instant -> first re-admitted frame completing within its
  /// display deadline, over the fastest / slowest recovering stream;
  /// -1 when nothing recovered.
  rt::Cycles first_recovery = -1;
  rt::Cycles full_recovery = -1;
};

/// Fleet-level result: per-stream outcomes (scenario order),
/// per-processor outcomes, and aggregates.  Deliberately excludes
/// wall-clock time so that equal workloads compare bit-identical; the
/// CLI and benchmarks measure wall time around run_farm.
struct FarmResult {
  std::vector<StreamOutcome> streams;
  std::vector<ProcessorOutcome> processors;
  /// The scheduling contract the run was played under.
  SchedulingSpec sched;
  /// The fault scenario it was played against (empty by default).
  FaultSpec fault_spec;
  /// Per-failure-event accounting, aligned with fault_spec.failures.
  std::vector<FailureOutcome> failures;

  int total_streams = 0;
  int admitted = 0;
  int rejected = 0;
  int migrated = 0;
  int degraded = 0;
  /// Streams admitted as C=D head + tail pieces on two processors
  /// (SchedulingSpec::split), counting the base placement only.
  int split_streams = 0;
  /// Streams admitted only by shrinking incumbents' budgets.
  int admitted_via_renegotiation = 0;
  /// Running streams whose budget a later newcomer shrank.
  int renegotiated_streams = 0;
  /// Shrunk streams a departure's restore pass grew back.
  int restored_streams = 0;
  long long total_preemptions = 0;
  rt::Cycles total_overhead_cycles = 0;
  double rejection_rate = 0.0;

  long long total_frames = 0;   ///< camera frames of admitted streams
  long long encoded_frames = 0;
  int total_skips = 0;
  int total_display_misses = 0;
  int total_internal_misses = 0;
  /// Frames the viewer saw stale output for (loss, aborts, blackouts,
  /// quarantine); disjoint from total_skips.
  long long total_concealed = 0;

  StreamFaultStats faults_total;  ///< fleet sums of per-stream stats
  int quarantined_streams = 0;
  int failover_readmissions = 0;  ///< segments opened after failures
  int failover_drops = 0;         ///< displaced streams nobody could host

  /// Control-plane sharding: per-shard accounting (single entry when
  /// unsharded), join-storm batches (0 batches unless
  /// FarmConfig::control_epoch > 0), and rebalancer migrations.
  int shards = 1;
  std::vector<ShardOutcome> shard_outcomes;
  long long join_batches = 0;
  int max_join_batch = 0;
  int rebalance_migrations = 0;

  double fleet_mean_psnr = 0.0;     ///< over all admitted frames
  double fleet_mean_ssim = 0.0;     ///< over all admitted frames
  double fleet_mean_quality = 0.0;  ///< over encoded frames
  /// Encoded frames per quality level (frame mean quality, rounded).
  std::vector<long long> quality_histogram;

  /// The seed the run was played with (provenance for reports).
  std::uint64_t farm_seed = 0;
  /// Always-on metrics: per-processor registries merged in processor
  /// index order, then the control plane's — a pure function of
  /// (scenario, config), independent of worker count.
  obs::Registry metrics;
  /// Merged schedule trace (empty unless FarmConfig::trace), sorted by
  /// simulated time with per-processor order preserved on ties.
  std::vector<obs::TraceEvent> trace;
  /// Events lost to ring-buffer overflow across all buffers.
  long long trace_dropped = 0;
  /// Per-buffer overflow attribution (empty unless tracing): one entry
  /// per virtual processor, then the control-plane buffer.
  std::vector<long long> trace_dropped_per_buffer;
  /// Windowed time series (window == 0 unless FarmConfig::ts_window):
  /// per-processor recorders merged in index order, control plane last
  /// — byte-identical across workers x shards like the trace.
  obs::TimeSeries series;
  /// SLO verdicts for FarmConfig::slos (empty without objectives).
  obs::SloReport slo;
};

/// The budget-epoch list renegotiations currently apply to: the base
/// placement's until a failover, then the latest failover segment's.
inline const std::vector<BudgetEpoch>& active_epochs(
    const StreamOutcome& so) {
  return so.failover.empty() ? so.epochs : so.failover.back().epochs;
}

/// Plays the scenario.  Deterministic in (scenario, config) — worker
/// count does not affect any result field.
FarmResult run_farm(const FarmScenario& scenario, const FarmConfig& config);

}  // namespace qosctrl::farm
