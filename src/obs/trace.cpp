#include "obs/trace.h"

#include <algorithm>
#include <iterator>

#include "encoder/body.h"
#include "util/check.h"
#include "util/json.h"

namespace qosctrl::obs {

TraceBuffer::TraceBuffer(std::uint16_t cpu, std::size_t capacity)
    : capacity_(capacity), cpu_(cpu) {
  QC_EXPECT(capacity > 0, "trace buffer capacity must be positive");
  ring_.reserve(capacity);
}

void TraceBuffer::push(EventKind kind, rt::Cycles time, std::int32_t stream,
                       std::int32_t frame, std::int64_t arg,
                       std::uint32_t aux) {
  TraceEvent ev;
  ev.time = time;
  ev.arg = arg;
  ev.stream = stream;
  ev.frame = frame;
  ev.kind = static_cast<std::uint16_t>(kind);
  ev.cpu = cpu_;
  ev.aux = aux;
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    ring_[pushed_ % capacity_] = ev;  // overwrite the oldest
  }
  ++pushed_;
}

long long TraceBuffer::dropped() const {
  return static_cast<long long>(pushed_) -
         static_cast<long long>(ring_.size());
}

void TraceBuffer::drain_to(std::vector<TraceEvent>* out) const {
  if (ring_.size() < capacity_) {
    out->insert(out->end(), ring_.begin(), ring_.end());
    return;
  }
  // Full ring: the oldest retained event sits at pushed_ % capacity_.
  const std::size_t head = pushed_ % capacity_;
  out->insert(out->end(), ring_.begin() + static_cast<std::ptrdiff_t>(head),
              ring_.end());
  out->insert(out->end(), ring_.begin(),
              ring_.begin() + static_cast<std::ptrdiff_t>(head));
}

TraceRecorder::TraceRecorder(int num_processors,
                             std::size_t capacity_per_buffer) {
  QC_EXPECT(num_processors >= 1, "trace recorder needs >= 1 processor");
  buffers_.reserve(static_cast<std::size_t>(num_processors) + 1);
  for (int p = 0; p <= num_processors; ++p) {
    buffers_.emplace_back(static_cast<std::uint16_t>(p),
                          capacity_per_buffer);
  }
}

long long TraceRecorder::dropped() const {
  long long total = 0;
  for (const TraceBuffer& b : buffers_) total += b.dropped();
  return total;
}

std::vector<TraceEvent> TraceRecorder::merged() const {
  std::vector<TraceEvent> out;
  std::size_t total = 0;
  for (const TraceBuffer& b : buffers_) {
    total += static_cast<std::size_t>(b.pushed() - b.dropped());
  }
  out.reserve(total);
  // Buffer-major (cpu ascending, emission order within), then a stable
  // sort by time: ties keep (cpu, sequence) order, so the merge is a
  // pure function of the buffer contents.
  for (const TraceBuffer& b : buffers_) b.drain_to(&out);
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });
  return out;
}

namespace {

const char* outcome_name(std::uint32_t aux) {
  switch (static_cast<CompleteOutcome>(aux)) {
    case CompleteOutcome::kDelivered:
      return "delivered";
    case CompleteOutcome::kLost:
      return "lost";
    case CompleteOutcome::kAborted:
      return "aborted";
  }
  return "?";
}

const char* conceal_reason_name(std::uint32_t aux) {
  switch (static_cast<ConcealReason>(aux)) {
    case ConcealReason::kQueuedOutage:
      return "queued_outage";
    case ConcealReason::kSuspendedOutage:
      return "suspended_outage";
    case ConcealReason::kArrivalOutage:
      return "arrival_outage";
    case ConcealReason::kQuarantineDrop:
      return "quarantine_drop";
  }
  return "?";
}

/// How an event's name continues after its fixed text.  Frame-scoped
/// events end in "s<stream>/f<frame>" so a stream's service segments
/// line up under one label per frame.
enum class Label : std::uint8_t {
  kNone,
  kFrame,   ///< "s<stream>/f<frame>"
  kStream,  ///< " s<stream>"
  kCpu,     ///< "/cpu<cpu>" (counter tracks)
  kPhase,   ///< "<encode phase of aux>/cpu<cpu>"
};

/// Where an argument's value comes from.
enum class From : std::uint8_t {
  kArg,
  kAux,
  kOutcome,        ///< outcome_name(aux)
  kConcealReason,  ///< conceal_reason_name(aux)
  kConcealed,      ///< the string "concealed"
};

struct ArgFormat {
  const char* key = nullptr;  ///< nullptr: no argument
  From from = From::kArg;
};

/// One event kind's Chrome trace-event shape; kFormats holds one per
/// EventKind, in enum order.
struct EventFormat {
  char ph = 0;  ///< 0: not exported
  const char* name = "";
  Label label = Label::kNone;
  ArgFormat args[2];
};

constexpr EventFormat kFormats[] = {
    // kNone
    {},
    // kDispatch
    {'B', "", Label::kFrame, {{"deadline"}}},
    // kResume
    {'B', "", Label::kFrame, {{"remaining"}}},
    // kPreempt
    {'E', "", Label::kFrame, {{"remaining"}}},
    // kComplete
    {'E', "", Label::kFrame, {{"cycles"}, {"outcome", From::kOutcome}}},
    // kConcealService
    {'E', "", Label::kFrame, {{"cycles"}, {"outcome", From::kConcealed}}},
    // kDeadlineMiss
    {'i', "deadline_miss ", Label::kFrame, {{"lateness"}}},
    // kEpochClose
    {'i', "epoch_close", Label::kStream, {{"budget"}}},
    // kEpochOpen
    {'i', "epoch_open", Label::kStream, {{"budget"}}},
    // kAdmit
    {'i', "admit", Label::kStream, {{"budget"}, {"processor", From::kAux}}},
    // kReject
    {'i', "reject", Label::kStream, {}},
    // kRenegotiate
    {'i', "renegotiate", Label::kStream, {{"budget"}}},
    // kRestore
    {'i', "restore", Label::kStream, {{"budget"}}},
    // kMigrate
    {'i', "migrate", Label::kStream, {{"processor", From::kAux}}},
    // kFailover
    {'i', "failover", Label::kStream, {{"processor", From::kAux}, {"budget"}}},
    // kFailoverDrop
    {'i', "failover_drop", Label::kStream, {}},
    // kProcFail
    {'i', "processor_fail", Label::kNone, {{"permanent", From::kAux}}},
    // kProcRepair
    {'i', "processor_repair", Label::kNone, {}},
    // kFaultInject
    {'i', "overrun ", Label::kFrame, {{"demand"}}},
    // kConceal
    {'i', "conceal ", Label::kFrame, {{"reason", From::kConcealReason}}},
    // kQuarantine
    {'i', "quarantine", Label::kStream, {{"until"}}},
    // kQueueDepth
    {'C', "queue_depth", Label::kCpu, {{"frames"}}},
    // kPhaseCycles
    {'C', "phase_", Label::kPhase, {{"cycles"}}},
    // kJoinBatch
    {'i', "join_batch", Label::kNone, {{"joins"}}},
    // kRebalance
    {'i', "rebalance", Label::kStream, {{"processor"}, {"shard", From::kAux}}},
    // kSloAlert
    {'i', "slo_alert", Label::kNone, {{"window"}, {"objective", From::kAux}}},
};
static_assert(std::size(kFormats) ==
                  static_cast<std::size_t>(EventKind::kSloAlert) + 1,
              "one trace-event format per EventKind");

/// A typical event's share of the export, for the up-front reserve.
constexpr std::size_t kBytesPerEvent = 104;

}  // namespace

std::string export_chrome_trace(const std::vector<TraceEvent>& events,
                                int num_processors) {
  util::JsonWriter w;
  w.reserve(kBytesPerEvent *
            (events.size() + static_cast<std::size_t>(num_processors) + 1));
  w.begin_object().key("traceEvents").begin_array();
  // Timeline row names: one per virtual processor, one control plane.
  for (int t = 0; t <= num_processors; ++t) {
    w.newline().begin_object();
    w.key("name").string("thread_name").key("ph").string("M");
    w.key("pid").integer(0).key("tid").integer(t);
    w.key("args").begin_object().key("name");
    if (t < num_processors) {
      w.begin_string().raw("cpu ").raw_integer(t).end_string();
    } else {
      w.string("control-plane");
    }
    w.end_object().end_object();
  }
  for (const TraceEvent& e : events) {
    if (e.kind >= std::size(kFormats) || kFormats[e.kind].ph == 0) continue;
    const EventFormat& f = kFormats[e.kind];
    w.newline().begin_object();
    w.key("name").begin_string().raw(f.name);
    switch (f.label) {
      case Label::kNone:
        break;
      case Label::kFrame:
        w.raw('s').raw_integer(e.stream).raw("/f").raw_integer(e.frame);
        break;
      case Label::kStream:
        w.raw(" s").raw_integer(e.stream);
        break;
      case Label::kPhase:
        w.raw(enc::encode_phase_name(static_cast<enc::EncodePhase>(e.aux)));
        [[fallthrough]];
      case Label::kCpu:
        w.raw("/cpu").raw_integer(e.cpu);
        break;
    }
    w.end_string();
    w.key("ph").begin_string().raw(f.ph).end_string();
    w.key("ts").integer(e.time);
    w.key("pid").integer(0).key("tid").integer(e.cpu);
    if (f.ph == 'i') w.key("s").string("t");
    if (f.args[0].key != nullptr) {
      w.key("args").begin_object();
      for (const ArgFormat& a : f.args) {
        if (a.key == nullptr) break;
        w.key(a.key);
        switch (a.from) {
          case From::kArg:
            w.integer(e.arg);
            break;
          case From::kAux:
            w.integer(e.aux);
            break;
          case From::kOutcome:
            w.string(outcome_name(e.aux));
            break;
          case From::kConcealReason:
            w.string(conceal_reason_name(e.aux));
            break;
          case From::kConcealed:
            w.string("concealed");
            break;
        }
      }
      w.end_object();
    }
    w.end_object();
  }
  w.raw('\n').end_array().end_object().raw('\n');
  return w.take();
}

}  // namespace qosctrl::obs
