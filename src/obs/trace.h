// Deterministic schedule tracing for the encoder farm.
//
// Design constraints, in order:
//
//  1. *Bit-identical traces.*  A run's merged trace must be a pure
//     function of (scenario, config) — never of the host worker count
//     or thread interleaving.  So events are stamped with *simulated*
//     cycles, buffers are per virtual processor (not per host thread),
//     and the merge orders by (time, buffer id, intra-buffer sequence),
//     all deterministic.
//  2. *Zero overhead when off.*  The farm emits through one probe per
//     virtual processor (farm/probe.h), which holds a null TraceBuffer
//     pointer when tracing is disabled: no event is constructed and no
//     memory is touched (BM_FarmThroughput regression-gates the claim).
//  3. *Bounded memory.*  Each buffer is a fixed-capacity ring of
//     32-byte POD events, single-writer (one virtual processor is
//     simulated by exactly one worker, the control plane is
//     sequential), so pushes are lock-free by construction.  Overflow
//     drops the *oldest* event and counts it — never silent
//     truncation, never unbounded growth.
//
// export_chrome_trace turns a merged trace into Chrome trace-event
// JSON (the "traceEvents" array format), loadable in Perfetto or
// chrome://tracing: one timeline row per virtual processor plus one
// for the control plane, service segments as B/E duration pairs,
// admission / fault / miss events as instants, and queue-depth /
// encoder-phase counter tracks.  Timestamps are raw simulated cycles
// (the paper's 8 GHz virtual clock) so the export is deterministic;
// the viewer's "us" unit label reads as virtual cycles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rt/types.h"

namespace qosctrl::obs {

/// Event kinds.  Values are part of the binary trace layout; append
/// only.
enum class EventKind : std::uint16_t {
  kNone = 0,
  kDispatch,        ///< frame enters service; arg = display deadline
  kResume,          ///< preempted frame resumes; arg = remaining cycles
  kPreempt,         ///< frame suspended; arg = remaining cycles
  kComplete,        ///< service done; arg = cycles, aux = CompleteOutcome
  kConcealService,  ///< in-service frame lost to an outage; arg = cycles
  kDeadlineMiss,    ///< delivered past deadline; arg = lateness
  kEpochClose,      ///< budget epoch superseded; arg = old budget
  kEpochOpen,       ///< budget epoch active; arg = new budget
  kAdmit,           ///< arg = table budget, aux = processor
  kReject,
  kRenegotiate,     ///< budget shrunk; arg = new budget
  kRestore,         ///< budget grown back; arg = new budget
  kMigrate,         ///< placed off preferred; aux = processor
  kFailover,        ///< re-admitted after failure; aux = new processor
  kFailoverDrop,    ///< no survivor could host the displaced stream
  kProcFail,        ///< outage starts; aux = 1 when permanent
  kProcRepair,      ///< transient outage ends
  kFaultInject,     ///< injected WCET overrun; arg = inflated demand
  kConceal,         ///< never-serviced frame concealed; aux = reason
  kQuarantine,      ///< stream quarantined; arg = release time
  kQueueDepth,      ///< counter: run-queue depth; arg = depth
  kPhaseCycles,     ///< counter: cumulative phase cycles; aux = phase
  kJoinBatch,       ///< control epoch closed; arg = joins batched
  kRebalance,       ///< cross-shard migration; arg = processor, aux = shard
  kSloAlert,        ///< burn-rate alert; arg = window, aux = objective
};

/// aux of kComplete: how the finished service was routed.
enum class CompleteOutcome : std::uint32_t {
  kDelivered = 0,
  kLost = 1,     ///< post-encode loss injection
  kAborted = 2,  ///< cut at the commitment by the budget policer
};

/// aux of kConceal: why a frame was concealed without service.
enum class ConcealReason : std::uint32_t {
  kQueuedOutage = 0,     ///< queued when the processor went down
  kSuspendedOutage = 1,  ///< preempted mid-service, then outage
  kArrivalOutage = 2,    ///< arrived while the processor was down
  kQuarantineDrop = 3,   ///< dropped by the overrun policer
};

/// One fixed-size binary trace event.  The layout is the pinned unit
/// of the determinism contract: tests compare merged traces (and
/// their JSON export) byte for byte.
struct TraceEvent {
  rt::Cycles time = 0;        ///< simulated cycles
  std::int64_t arg = 0;       ///< kind-specific payload
  std::int32_t stream = -1;   ///< stream id (-1: processor-scoped)
  std::int32_t frame = -1;    ///< camera frame index (-1: none)
  std::uint16_t kind = 0;     ///< EventKind
  std::uint16_t cpu = 0;      ///< buffer id (processor; last = control)
  std::uint32_t aux = 0;      ///< kind-specific small payload
};
static_assert(sizeof(TraceEvent) == 32,
              "TraceEvent is a pinned 32-byte binary layout");

/// Fixed-capacity single-writer ring of TraceEvents.  Overflow
/// overwrites the oldest event and counts the drop.
class TraceBuffer {
 public:
  TraceBuffer(std::uint16_t cpu, std::size_t capacity);

  void push(EventKind kind, rt::Cycles time, std::int32_t stream,
            std::int32_t frame, std::int64_t arg, std::uint32_t aux = 0);

  /// Events pushed minus events retained (oldest-first overwrites).
  long long dropped() const;
  long long pushed() const { return static_cast<long long>(pushed_); }
  std::uint16_t cpu() const { return cpu_; }

  /// Appends the retained events, oldest first, in emission order.
  void drain_to(std::vector<TraceEvent>* out) const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::uint64_t pushed_ = 0;
  std::uint16_t cpu_;
};

/// One ring per virtual processor plus one for the control plane
/// (buffer id = num_processors).  The recorder itself is only
/// constructed/merged on the control plane; workers touch only their
/// own processor's buffer.
class TraceRecorder {
 public:
  TraceRecorder(int num_processors, std::size_t capacity_per_buffer);

  TraceBuffer* processor(int p) { return &buffers_[static_cast<std::size_t>(p)]; }
  TraceBuffer* control() { return &buffers_.back(); }
  int num_processors() const {
    return static_cast<int>(buffers_.size()) - 1;
  }

  /// Total events dropped to ring overflow, over all buffers.
  long long dropped() const;

  /// The merged trace: every retained event, stably ordered by
  /// simulated time with (buffer id, emission order) breaking ties —
  /// a pure function of the buffer contents, so bit-identical for any
  /// worker count.
  std::vector<TraceEvent> merged() const;

 private:
  std::vector<TraceBuffer> buffers_;
};

/// Chrome trace-event JSON ({"traceEvents":[...]}) of a merged trace;
/// `num_processors` names the timeline rows (the control plane is tid
/// num_processors).  Pure function of its inputs.
std::string export_chrome_trace(const std::vector<TraceEvent>& events,
                                int num_processors);

}  // namespace qosctrl::obs
