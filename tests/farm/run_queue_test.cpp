// The data plane's counters of events admission never lets happen,
// driven directly.  Admission never lets a processor miss or overflow a
// camera buffer, so every farm-level test asserts zero of them and
// cannot tell a working counter from a dead one.  Here hand-built
// assignments over-commit one processor below the admission layer (and
// a transient outage hits it mid-run), and each count must equal an
// oracle recomputed from the frame records, or from the trace of the
// same run without the outage.
#include "farm/run_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "encoder/system_builder.h"
#include "farm/probe.h"
#include "farm_test_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qosctrl::farm {
namespace {

/// Streams played on one processor through farm::run_processor, each
/// reserving its whole latency window K * P as its table budget, which
/// admission would never allow together.  The processor's probe writes
/// `metrics` and `trace`.
struct HandBuiltRun {
  explicit HandBuiltRun(std::vector<StreamSpec> streams)
      : specs(std::move(streams)), results(specs.size()) {
    for (const StreamSpec& s : specs) {
      const rt::Cycles budget = latency_of(s);
      epochs.push_back({BudgetEpoch{
          0, budget, budget,
          std::make_shared<const enc::EncoderSystem>(
              enc::build_encoder_system(macroblocks_of(s), budget,
                                        platform::figure5_cost_table()))}});
      records.emplace_back(static_cast<std::size_t>(s.num_frames));
    }
  }

  void run(const SchedulingSpec& sched = {}, const FaultSpec& faults = {},
           const std::vector<Window>& windows = {}) {
    std::vector<Assignment> assigned;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Assignment a;
      a.spec = &specs[i];
      a.epochs = &epochs[i];
      a.first_frame = 0;
      a.end_frame = specs[i].num_frames;
      a.records = records[i].data();
      a.res = &results[i];
      assigned.push_back(a);
    }
    Probe probe(0, metrics, &trace, nullptr);
    run_processor(FarmConfig{}, sched, faults, windows, assigned, probe);
  }

  rt::Cycles arrival(std::size_t stream, int frame) const {
    return specs[stream].join_time + frame * period_of(specs[stream]);
  }

  std::vector<obs::TraceEvent> events() const {
    std::vector<obs::TraceEvent> out;
    trace.drain_to(&out);
    return out;
  }

  std::vector<StreamSpec> specs;
  std::vector<std::vector<BudgetEpoch>> epochs;
  std::vector<std::vector<pipe::FrameRecord>> records;
  std::vector<SegmentResult> results;
  obs::Registry metrics;
  obs::TraceBuffer trace{0, 1 << 16};
};

/// Three 4-macroblock streams with K = 1, joining a third of a period
/// apart: about three periods of demand per period.
std::vector<StreamSpec> over_committed_streams(int frames) {
  constexpr int kStreams = 3;
  std::vector<StreamSpec> specs;
  for (int i = 0; i < kStreams; ++i) {
    StreamSpec s = tiny_stream(i, 1.0, frames);
    s.join_time = i * (period_of(s) / kStreams);
    specs.push_back(s);
  }
  return specs;
}

// With K = 1 a frame's display deadline is its arrival plus one period,
// and without faults or preemption its service is one uninterrupted run
// from arrival + start_lag, so frame f of a stream is late by start_lag
// + encode_cycles - latency when positive.
TEST(RunQueueMisses, OverCommittedProcessorMissesAsItsRecordsSay) {
  constexpr int kFrames = 8;
  HandBuiltRun r(over_committed_streams(kFrames));
  r.run();

  int oracle_total = 0;
  int detected_total = 0;
  for (std::size_t i = 0; i < r.specs.size(); ++i) {
    int oracle = 0;
    for (const pipe::FrameRecord& rec : r.records[i]) {
      if (!rec.encoded()) continue;
      const rt::Cycles lateness =
          rec.start_lag + rec.encode_cycles - latency_of(r.specs[i]);
      oracle += lateness > 0 ? 1 : 0;
    }
    EXPECT_EQ(r.results[i].display_misses, oracle) << "stream " << i;
    oracle_total += oracle;
    detected_total += r.results[i].display_misses;
  }
  EXPECT_GT(oracle_total, 0) << "the over-commit must produce misses";
  EXPECT_LT(oracle_total, static_cast<int>(r.specs.size()) * kFrames)
      << "some frames must be on time, so the oracle tells them apart";
  EXPECT_EQ(r.metrics.counter("display_misses"), detected_total);
}

// A camera frame finds its stream's input buffer full when K frames of
// the stream that arrived before it still wait for service: first
// dispatched (at arrival + start_lag) no earlier than its arrival, as
// arrivals due at an instant enter before the dispatch at that instant.
// The oracle replays that rule over the arrivals and the dispatch times
// the records give; it must match the skips frame by frame, and there
// must be skips for it to tell a full buffer from one with room.
TEST(RunQueueCameraSkips, OverfilledBuffersSkipAsTheArrivalsSay) {
  constexpr int kFrames = 10;
  HandBuiltRun r(over_committed_streams(kFrames));
  r.run();

  int oracle_total = 0;
  for (std::size_t i = 0; i < r.specs.size(); ++i) {
    std::vector<rt::Cycles> dispatched;  // of every frame let in
    for (int f = 0; f < kFrames; ++f) {
      const rt::Cycles at = r.arrival(i, f);
      const auto waiting = std::count_if(
          dispatched.begin(), dispatched.end(),
          [at](rt::Cycles d) { return d >= at; });
      const bool full = waiting >= r.specs[i].buffer_capacity;
      const pipe::FrameRecord& rec = r.records[i][static_cast<std::size_t>(f)];
      EXPECT_EQ(rec.skipped, full) << "stream " << i << " frame " << f;
      if (full) {
        ++oracle_total;
      } else {
        ASSERT_TRUE(rec.encoded()) << "stream " << i << " frame " << f;
        dispatched.push_back(at + rec.start_lag);
      }
    }
  }
  EXPECT_GT(oracle_total, 0) << "the over-commit must overfill a buffer";
  EXPECT_EQ(r.metrics.counter("camera_skips"), oracle_total);
}

/// The processor's service state at an instant, replayed from a trace:
/// the (stream, frame) pairs ever dispatched and those suspended, and
/// whether a frame is in service.
struct ServiceState {
  std::set<std::pair<int, int>> dispatched;
  std::set<std::pair<int, int>> suspended;
  bool running = false;
};

// A transient outage conceals what it finds on the processor, by
// reason: the frame in service and every preempted one
// (kSuspendedOutage), every queued one never served (kQueuedOutage),
// and every arrival while the processor is down (kArrivalOutage).  The
// run without the outage is replayed from its trace up to a quiet
// instant with a frame suspended and one queued; the same run with a
// blackout starting there must conceal exactly what the replay holds.
TEST(RunQueueOutages, ATransientOutageConcealsWhatItFindsByReason) {
  constexpr int kFrames = 8;
  // A long-period stream (3P) whose frames the two short-period ones
  // preempt: a frame of theirs arriving within 2P of the long frame's
  // arrival has the earlier display deadline.  Over-committed, so
  // frames queue.
  std::vector<StreamSpec> specs;
  for (int i = 0; i < 3; ++i) {
    StreamSpec s = tiny_stream(i, i == 0 ? 3.0 : 1.0, kFrames);
    s.join_time = i * (period_of(tiny_stream(1, 1.0)) / 3);
    specs.push_back(s);
  }
  SchedulingSpec sched;
  sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
  // Any failure turns on delivery tracking, as in a faulted farm; the
  // run queue plays only the windows it is handed.
  FaultSpec faults;
  faults.failures.push_back(FailureEvent{0, 1, 1});

  HandBuiltRun plain(specs);
  plain.run(sched, faults);
  std::vector<obs::TraceEvent> events = plain.events();
  std::stable_sort(events.begin(), events.end(),
                   [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                     return a.time < b.time;
                   });
  ASSERT_EQ(plain.trace.dropped(), 0);

  // Replay up to the first quiet gap (no event inside) that holds a
  // suspended frame and a queued one.
  ServiceState state;
  rt::Cycles start = -1;
  ServiceState at_start;
  for (std::size_t e = 0; e < events.size() && start < 0; ++e) {
    const obs::TraceEvent& ev = events[e];
    const std::pair<int, int> key{ev.stream, ev.frame};
    switch (static_cast<obs::EventKind>(ev.kind)) {
      case obs::EventKind::kDispatch:
        state.dispatched.insert(key);
        state.running = true;
        break;
      case obs::EventKind::kResume:
        state.suspended.erase(key);
        state.running = true;
        break;
      case obs::EventKind::kPreempt:
        state.suspended.insert(key);
        state.running = false;
        break;
      case obs::EventKind::kComplete:
        state.running = false;
        break;
      default:
        break;
    }
    if (e + 1 == events.size() || events[e + 1].time - ev.time < 2 ||
        state.suspended.empty()) {
      continue;
    }
    const rt::Cycles t = ev.time + (events[e + 1].time - ev.time) / 2;
    int queued = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      for (int f = 0; f < kFrames; ++f) {
        queued += plain.arrival(i, f) < t &&
                  !plain.records[i][static_cast<std::size_t>(f)].skipped &&
                  state.dispatched.count({static_cast<int>(i), f}) == 0;
      }
    }
    if (queued > 0) {
      start = t;
      at_start = state;
    }
  }
  ASSERT_GE(start, 0) << "the preemptive over-commit must suspend a frame "
                         "while another one waits";

  const Window window{start, start + period_of(specs[1])};
  int queued = 0;
  int arrived_down = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (int f = 0; f < kFrames; ++f) {
      const rt::Cycles at = plain.arrival(i, f);
      queued += at < start &&
                !plain.records[i][static_cast<std::size_t>(f)].skipped &&
                at_start.dispatched.count({static_cast<int>(i), f}) == 0;
      arrived_down += at >= window.start && at < window.end;
    }
  }
  const int suspended =
      static_cast<int>(at_start.suspended.size()) + (at_start.running ? 1 : 0);

  HandBuiltRun down(specs);
  down.run(sched, faults, {window});
  std::map<obs::ConcealReason, int> by_reason;
  int cut_in_service = 0;
  for (const obs::TraceEvent& ev : down.events()) {
    const auto kind = static_cast<obs::EventKind>(ev.kind);
    if (kind == obs::EventKind::kConceal ||
        kind == obs::EventKind::kConcealService) {
      ++by_reason[static_cast<obs::ConcealReason>(ev.aux)];
    }
    cut_in_service += kind == obs::EventKind::kConcealService;
  }
  EXPECT_EQ(by_reason[obs::ConcealReason::kSuspendedOutage], suspended);
  EXPECT_EQ(by_reason[obs::ConcealReason::kQueuedOutage], queued);
  EXPECT_EQ(by_reason[obs::ConcealReason::kArrivalOutage], arrived_down);
  EXPECT_EQ(by_reason[obs::ConcealReason::kQuarantineDrop], 0);
  EXPECT_EQ(cut_in_service, at_start.running ? 1 : 0);
  int failure_drops = 0;
  for (const SegmentResult& res : down.results) {
    failure_drops += res.faults.failure_drops;
  }
  EXPECT_EQ(failure_drops, suspended + queued + arrived_down);
  EXPECT_GE(suspended, 1);
  EXPECT_GE(queued, 1);
}

}  // namespace
}  // namespace qosctrl::farm
