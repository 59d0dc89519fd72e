#include "farm/simulator.h"

#include <algorithm>

#include "farm/shard.h"
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace qosctrl::farm {
namespace {

constexpr rt::Cycles kNever = std::numeric_limits<rt::Cycles>::max();

/// The session config a StreamSpec expands to.  Seeds (cost jitter and
/// video content) are forked from the farm seed by stream id, so the
/// expansion is a pure function — any worker thread gets the same one.
/// `nominal_fps` is the camera rate at the default pacing; a stream
/// whose period is scaled by a factor f runs its camera (and rate
/// control, and bitrate accounting) at nominal_fps / f, so per-stream
/// kbps figures are comparable across heterogeneous periods.
pipe::PipelineConfig stream_pipeline_config(const StreamSpec& spec,
                                            std::uint64_t farm_seed,
                                            double nominal_fps) {
  pipe::PipelineConfig cfg;
  cfg.video.width = spec.width;
  cfg.video.height = spec.height;
  cfg.video.num_frames = spec.num_frames;
  cfg.video.num_scenes = spec.num_scenes;
  cfg.frame_period = period_of(spec);
  cfg.buffer_capacity = spec.buffer_capacity;
  cfg.mode = spec.mode;
  cfg.constant_quality = spec.constant_quality;
  cfg.rate.frame_rate =
      nominal_fps *
      static_cast<double>(default_frame_period(macroblocks_of(spec))) /
      static_cast<double>(period_of(spec));
  util::Rng derive = util::Rng(farm_seed).fork(
      static_cast<std::uint64_t>(spec.id));
  cfg.seed = spec.seed != 0 ? spec.seed : derive.next_u64();
  cfg.video.seed = derive.next_u64();
  return cfg;
}

/// A processor outage interval injected by a FailureEvent: service is
/// down for t in [start, end) (end = kNever when permanent).  Arrival
/// concealment tests against these precomputed windows — never against
/// mutable simulation state — so event ordering at the boundary
/// instants cannot change what a frame sees.
struct Window {
  rt::Cycles start = 0;
  rt::Cycles end = kNever;
  bool permanent = false;
};

/// Per-segment tallies the data plane writes and run_farm stitches
/// into StreamOutcome after the worker pool joins.
struct SegmentResult {
  int display_misses = 0;
  std::vector<rt::Cycles> lags;  ///< start lag of every dispatched frame
  StreamFaultStats faults;
  /// First completion of a delivered (non-concealed) frame within its
  /// display deadline; -1 when the segment never got one.  Recovery
  /// latency of a failover segment = first_ontime - failure time.
  rt::Cycles first_ontime = -1;
  bool quarantined = false;
};

/// One frame a C=D split stream's head piece finished and handed to
/// its tail piece on the (always higher-indexed) tail processor.  The
/// head owns the encode — the record is final when the entry is
/// written — and the tail piece is a pure service relay: it burns the
/// remaining demand and does the display-deadline accounting.
struct HandoffEntry {
  int frame = 0;
  rt::Cycles arrival = 0;  ///< camera arrival (latency measured from it)
  /// When the tail job becomes ready.  The C=D analysis releases the
  /// tail at arrival + C1 (head deadline), which keeps tail releases
  /// exactly periodic as the admission test assumed; when the head
  /// finishes late (policed overload), the actual completion wins so
  /// the handoff stays causal.
  rt::Cycles release = 0;
  rt::Cycles deadline = 0;  ///< display deadline (tail's EDF key)
  rt::Cycles demand = 0;    ///< service cycles still owed by the tail
  pipe::FrameRecord rec{};  ///< the final record the head produced
};

/// One stream *segment* (base placement, or a failover re-admission)
/// assigned to a processor's run queue.  Records and tallies point
/// into per-stream storage owned by run_farm; segments of one stream
/// cover disjoint frame ranges, so workers never race.  A C=D split
/// segment contributes *two* assignments — the head (split_head > 0,
/// handoff_out set) and the tail relay (handoff_in set) — sharing
/// records and res; the level-ordered worker pool runs the head's
/// processor to completion before the tail's starts, so the sharing
/// is sequential.
struct Assignment {
  StreamOutcome* so = nullptr;
  int segment = 0;  ///< 0 = base placement, k > 0 = failover[k - 1]
  int first_frame = 0;
  int end_frame = 0;  ///< one past the last frame this segment serves
  pipe::FrameRecord* records = nullptr;  ///< the stream's full array
  SegmentResult* res = nullptr;
  const std::vector<CertifiedRung>* ladder = nullptr;  ///< null: none
  /// C=D head piece: the committed zero-slack budget C1 (the head's
  /// EDF deadline is arrival + C1, not the display deadline).
  rt::Cycles split_head = 0;
  std::vector<HandoffEntry>* handoff_out = nullptr;    ///< head side
  const std::vector<HandoffEntry>* handoff_in = nullptr;  ///< tail side
};

/// A frame queued on a processor.
struct FrameJob {
  rt::Cycles deadline;  ///< display deadline (EDF key)
  int stream;           ///< index into the processor's stream list
  int frame;            ///< camera frame index
  rt::Cycles arrival;

  bool operator<(const FrameJob& o) const {
    return std::tie(deadline, stream, frame) <
           std::tie(o.deadline, o.stream, o.frame);
  }
};

struct PendingArrival {
  rt::Cycles time;
  int stream;

  bool operator>(const PendingArrival& o) const {
    return std::tie(time, stream) > std::tie(o.time, o.stream);
  }
};

/// One assigned stream segment's simulation state on its processor.
struct StreamState {
  const StreamSpec* spec = nullptr;
  const std::vector<BudgetEpoch>* epochs = nullptr;
  const std::vector<CertifiedRung>* ladder = nullptr;
  std::unique_ptr<pipe::StreamSession> session;
  std::optional<FaultPlan> plan;
  rt::Cycles period = 0;
  rt::Cycles latency = 0;
  int first_frame = 0;
  int end_frame = 0;
  int next_arrival = 0;  ///< next camera frame index to arrive
  int queued = 0;        ///< frames waiting (excluding dispatched ones)
  std::size_t epoch_idx = 0;  ///< budget epoch of the last dispatch
  /// Overrun-policer state.
  int force_rung = -1;  ///< ladder rung imposed by the policer (-1: none)
  int strikes = 0;      ///< policed overruns toward quarantine
  rt::Cycles quarantined_until = -1;  ///< arrivals before this are dropped
  bool pending_qmin = false;  ///< re-enter at the qmin rung on release
  /// The budget the current tables are paced over and the committed
  /// worst case the policer cuts at (budget + migration surcharge).
  rt::Cycles enforce_budget = 0;
  rt::Cycles enforce_cost = 0;
  pipe::FrameRecord* records = nullptr;
  SegmentResult* res = nullptr;
  /// C=D split roles.  A head piece (split_head > 0) encodes as usual
  /// but serves at most split_head cycles per frame under the tight
  /// head deadline, handing the remainder off.  A tail relay
  /// (relay == true) has *no session* — its frames' records are final
  /// when they arrive — and every session-touching path must be
  /// guarded on it.
  rt::Cycles split_head = 0;
  std::vector<HandoffEntry>* handoff_out = nullptr;
  bool relay = false;
  const std::vector<HandoffEntry>* handoff_in = nullptr;
  std::size_t next_handoff = 0;  ///< next handoff entry to release
};

/// A frame in service (or suspended mid-service by a preemption).
/// The frame's content, bits, and total service demand are fixed at
/// first dispatch (the encode is a pure function of the stream's own
/// state); the scheduler then accounts the demand cycle-accurately
/// across service segments.
struct ActiveJob {
  FrameJob job{};
  pipe::FrameRecord rec{};
  FrameFaults faults{};          ///< drawn once at first dispatch
  bool aborted = false;          ///< cut off by the budget policer
  rt::Cycles remaining = 0;      ///< service cycles still owed
  rt::Cycles dispatched_at = 0;  ///< start of the current segment
  /// Cycles this processor does *not* serve: on a split head, the
  /// share handed to the tail; on a tail relay, the full relayed
  /// demand (so outage accounting knows what was consumed locally).
  rt::Cycles tail_demand = 0;
};

/// Simulates one processor's run queue to completion under the
/// scenario's scheduling policy.  Writes the per-stream frame records
/// back through `assigned` (segments of one stream serve disjoint
/// frame ranges, so no locking).  `metrics` (never null, always on),
/// `trace` (null unless FarmConfig::trace), and `series` (null unless
/// FarmConfig::ts_window) are this processor's private observability
/// sinks; every trace or series emission is a branch on the null
/// pointer, so the hot loop pays nothing when both are off.
void run_processor(const FarmConfig& config, const SchedulingSpec& sched,
                   const FaultSpec& fault_spec,
                   const std::vector<Window>& windows,
                   const std::vector<Assignment>& assigned,
                   ProcessorOutcome* out, obs::Registry* metrics,
                   obs::TraceBuffer* trace, obs::SeriesRecorder* series) {
  const std::unique_ptr<sched::SchedPolicy> policy =
      sched::make_policy(sched.policy);
  const rt::Cycles ctx = policy->context_switch_cost();
  const bool police_overruns = fault_spec.overrun.enabled();
  const bool inject_loss = fault_spec.loss.enabled();
  const OverrunSpec& ospec = fault_spec.overrun;

  // Metric sinks, resolved once so the event loop records through
  // plain references (the registry is per-processor, unshared).
  long long& m_dispatched = metrics->counter("frames_dispatched");
  long long& m_completed = metrics->counter("frames_completed");
  long long& m_preemptions = metrics->counter("preemptions");
  long long& m_concealed = metrics->counter("frames_concealed");
  long long& m_display_misses = metrics->counter("display_misses");
  long long& m_camera_skips = metrics->counter("camera_skips");
  obs::Histogram& h_latency = metrics->histogram("frame_latency_cycles");
  obs::Histogram& h_lag = metrics->histogram("start_lag_cycles");
  obs::Histogram& h_qdepth = metrics->histogram("queue_depth");
  obs::Histogram& h_encode = metrics->histogram("encode_cycles");
  std::array<obs::Histogram*, enc::kNumEncodePhases> h_phase{};
  for (int ph = 0; ph < enc::kNumEncodePhases; ++ph) {
    h_phase[static_cast<std::size_t>(ph)] = &metrics->histogram(
        std::string("phase_") +
        enc::encode_phase_name(static_cast<enc::EncodePhase>(ph)) +
        "_cycles");
  }
  // Cumulative per-phase cycles, the trace's phase counter tracks.
  std::array<long long, enc::kNumEncodePhases> phase_total{};

  // Time-series sinks, resolved once like the registry sinks: fleet
  // tracks plus one `@class` variant per control mode (what the SLO
  // class scopes read).  Busy cycles are recorded under the plain name
  // here; run_farm re-labels each processor's copy as
  // busy_cycles/cpu<p> for the per-processor utilization heatmap.
  constexpr std::size_t kNumClasses = 3;
  constexpr const char* kClassSuffix[kNumClasses] = {
      "@controlled", "@constant", "@feedback"};
  obs::SeriesTrack* s_latency = nullptr;
  obs::SeriesTrack* s_queue = nullptr;
  obs::SeriesTrack* s_encode = nullptr;
  obs::SeriesTrack* s_busy = nullptr;
  std::array<obs::SeriesTrack*, enc::kNumEncodePhases> s_phase{};
  std::array<obs::SeriesTrack*, kNumClasses> s_latency_c{};
  std::array<obs::SeriesTrack*, kNumClasses> s_completed_c{};
  std::array<obs::SeriesTrack*, kNumClasses> s_misses_c{};
  std::array<obs::SeriesTrack*, kNumClasses> s_concealed_c{};
  obs::SeriesTrack* s_completed = nullptr;
  obs::SeriesTrack* s_misses = nullptr;
  obs::SeriesTrack* s_concealed = nullptr;
  if (series != nullptr) {
    s_latency = &series->track("frame_latency_cycles");
    s_queue = &series->track("queue_depth");
    s_encode = &series->track("encode_cycles");
    s_busy = &series->track("busy_cycles");
    s_completed = &series->track("frames_completed");
    s_misses = &series->track("display_misses");
    s_concealed = &series->track("frames_concealed");
    for (int ph = 0; ph < enc::kNumEncodePhases; ++ph) {
      s_phase[static_cast<std::size_t>(ph)] = &series->track(
          std::string("phase_") +
          enc::encode_phase_name(static_cast<enc::EncodePhase>(ph)) +
          "_cycles");
    }
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      s_latency_c[c] =
          &series->track(std::string("frame_latency_cycles") +
                         kClassSuffix[c]);
      s_completed_c[c] =
          &series->track(std::string("frames_completed") + kClassSuffix[c]);
      s_misses_c[c] =
          &series->track(std::string("display_misses") + kClassSuffix[c]);
      s_concealed_c[c] =
          &series->track(std::string("frames_concealed") + kClassSuffix[c]);
    }
  }
  auto ts_value = [&](obs::SeriesTrack* t, rt::Cycles at, long long v) {
    if (series != nullptr) series->record(*t, at, v);
  };
  // One completed frame: fleet + class completion/latency counts and
  // the encode-cycles track (the SLO latency and rate denominators).
  auto ts_complete = [&](const StreamState& st, rt::Cycles at,
                         long long latency, long long encode_cycles) {
    if (series == nullptr) return;
    const auto cls = static_cast<std::size_t>(st.spec->mode);
    series->record(*s_completed, at, 1);
    series->record(*s_completed_c[cls], at, 1);
    series->record(*s_latency, at, latency);
    series->record(*s_latency_c[cls], at, latency);
    series->record(*s_encode, at, encode_cycles);
  };
  auto ts_miss = [&](const StreamState& st, rt::Cycles at,
                     long long lateness) {
    if (series == nullptr) return;
    series->record(*s_misses, at, lateness);
    series->record(*s_misses_c[static_cast<std::size_t>(st.spec->mode)],
                   at, lateness);
  };
  auto ts_conceal = [&](const StreamState& st, rt::Cycles at) {
    if (series == nullptr) return;
    series->record(*s_concealed, at, 1);
    series->record(*s_concealed_c[static_cast<std::size_t>(st.spec->mode)],
                   at, 1);
  };

  std::vector<StreamState> streams;
  streams.reserve(assigned.size());
  for (const Assignment& asg : assigned) {
    StreamState st;
    st.spec = &asg.so->spec;
    st.epochs = asg.segment == 0
                    ? &asg.so->epochs
                    : &asg.so->failover[static_cast<std::size_t>(
                                            asg.segment - 1)]
                           .epochs;
    st.ladder = asg.ladder;
    st.period = period_of(*st.spec);
    st.latency = latency_of(*st.spec);
    st.first_frame = asg.first_frame;
    st.end_frame = asg.end_frame;
    st.next_arrival = asg.first_frame;
    st.split_head = asg.split_head;
    st.handoff_out = asg.handoff_out;
    st.handoff_in = asg.handoff_in;
    st.relay = asg.handoff_in != nullptr;
    if (!st.relay) {
      const BudgetEpoch& initial = st.epochs->front();
      st.session = std::make_unique<pipe::StreamSession>(
          stream_pipeline_config(*st.spec, config.seed, config.frame_rate),
          initial.table_budget, initial.system);
      if (fault_spec.any()) st.session->track_delivery();
      st.plan.emplace(fault_spec, config.seed, st.spec->id);
      st.enforce_budget = initial.table_budget;
      st.enforce_cost = initial.committed_cost;
    }
    st.records = asg.records;
    st.res = asg.res;
    streams.push_back(std::move(st));
  }

  // Arrival events, earliest (then lowest stream) first.  Frame f of a
  // segment arrives at join_time + f * P.
  std::priority_queue<PendingArrival, std::vector<PendingArrival>,
                      std::greater<PendingArrival>>
      arrivals;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const StreamState& st = streams[s];
    if (st.relay) {
      // A tail relay's "arrivals" are the handoff entries its head
      // piece wrote — complete before this processor's level ran.
      if (!st.handoff_in->empty()) {
        arrivals.push(
            PendingArrival{st.handoff_in->front().release,
                           static_cast<int>(s)});
      }
    } else if (st.first_frame < st.end_frame) {
      arrivals.push(PendingArrival{
          st.spec->join_time +
              static_cast<rt::Cycles>(st.first_frame) * st.period,
          static_cast<int>(s)});
    }
  }

  std::set<FrameJob> ready;  ///< the run queue, EDF by display deadline
  /// Jobs suspended mid-service, keyed by (stream, frame).
  std::map<std::pair<int, int>, ActiveJob> suspended;
  std::optional<ActiveJob> running;
  rt::Cycles now = 0;
  rt::Cycles span = 0;  ///< last completion time
  std::size_t next_window = 0;
  rt::Cycles blackout_until = -1;  ///< end of the current transient outage
  bool halted = false;             ///< permanently failed

  /// Whether an event at instant `t` falls inside any injected outage
  /// window.  Window-based (not state-based): the answer is a pure
  /// function of (fault spec, t), independent of how the event loop
  /// interleaves transitions at equal instants.
  auto in_blackout = [&](rt::Cycles t) {
    for (const Window& w : windows) {
      if (t >= w.start && (w.permanent || t < w.end)) return true;
    }
    return false;
  };

  /// Selects the tables frame `arrival` is paced over: its budget
  /// epoch (renegotiations), capped by any policer-forced ladder rung.
  /// Also refreshes the policer's cut threshold — the committed worst
  /// case enforce_budget + migration surcharge.
  auto resolve_system = [&](StreamState& st, rt::Cycles arrival) {
    while (st.epoch_idx + 1 < st.epochs->size() &&
           (*st.epochs)[st.epoch_idx + 1].from_time <= arrival) {
      if (trace != nullptr) {
        trace->push(obs::EventKind::kEpochClose, now, st.spec->id, -1,
                    (*st.epochs)[st.epoch_idx].table_budget);
        trace->push(obs::EventKind::kEpochOpen, now, st.spec->id, -1,
                    (*st.epochs)[st.epoch_idx + 1].table_budget);
      }
      ++st.epoch_idx;
    }
    const BudgetEpoch& ep = (*st.epochs)[st.epoch_idx];
    rt::Cycles budget = ep.table_budget;
    std::shared_ptr<const enc::EncoderSystem> sys = ep.system;
    if (st.force_rung >= 0 && st.ladder != nullptr) {
      const CertifiedRung& rung =
          (*st.ladder)[static_cast<std::size_t>(st.force_rung)];
      if (rung.table_budget < budget) {
        budget = rung.table_budget;
        sys = rung.system;
      }
    }
    if (sys != nullptr && &st.session->system() != sys.get()) {
      st.session->switch_system(sys);
    }
    st.enforce_budget = budget;
    st.enforce_cost = budget + (ep.committed_cost - ep.table_budget);
  };

  auto dispatch = [&] {
    const FrameJob job = *ready.begin();
    ready.erase(ready.begin());
    const int sid = streams[static_cast<std::size_t>(job.stream)].spec->id;
    if (trace != nullptr) {
      trace->push(obs::EventKind::kQueueDepth, now, -1, -1,
                  static_cast<std::int64_t>(ready.size()));
    }
    ActiveJob a;
    const auto key = std::make_pair(job.stream, job.frame);
    auto it = suspended.find(key);
    if (it != suspended.end()) {
      // Resuming a preempted frame: the switch-in half of its
      // preemption charge.
      a = it->second;
      suspended.erase(it);
      out->overhead_cycles += ctx;
      now += ctx;
      if (trace != nullptr) {
        trace->push(obs::EventKind::kResume, now, sid, job.frame,
                    a.remaining);
      }
    } else if (streams[static_cast<std::size_t>(job.stream)].relay) {
      // Tail relay: the record is final; just serve the remaining
      // demand.  Dispatch/lag metrics were taken at the head.
      StreamState& st = streams[static_cast<std::size_t>(job.stream)];
      --st.queued;
      const auto& entries = *st.handoff_in;
      const auto eit = std::lower_bound(
          entries.begin(), entries.end(), job.frame,
          [](const HandoffEntry& h, int f) { return h.frame < f; });
      a.job = job;
      a.rec = eit->rec;
      a.remaining = eit->demand;
      a.tail_demand = eit->demand;
      if (trace != nullptr) {
        trace->push(obs::EventKind::kDispatch, now, sid, job.frame,
                    job.deadline);
      }
    } else {
      StreamState& st = streams[static_cast<std::size_t>(job.stream)];
      --st.queued;
      resolve_system(st, job.arrival);
      // Elapsed time is measured from service start (t0 = 0): the
      // session's tables are paced over the reserved budget, and the
      // queueing delay lives in the latency slack K*P - B instead.
      a.job = job;
      a.rec = st.session->encode(job.frame, 0);
      a.rec.start_lag = now - job.arrival;
      a.faults = st.plan->at(job.frame);
      rt::Cycles demand = a.rec.encode_cycles;
      if (police_overruns && a.faults.overrun) {
        // Injected WCET overrun: the frame demands `factor` times its
        // honest cost.  The policer cuts it off at the stream's
        // committed worst case — co-resident streams never pay.
        a.rec.overrun = true;
        ++st.res->faults.overruns_injected;
        demand = std::max(
            demand, static_cast<rt::Cycles>(std::llround(
                        static_cast<double>(demand) * ospec.factor)));
        if (demand > st.enforce_cost) {
          ++st.res->faults.overruns_policed;
          a.aborted = true;
          a.rec.aborted = true;
          demand = st.enforce_cost;
        }
        a.rec.encode_cycles = demand;
      }
      // C=D head: serve at most the committed head piece here; the
      // remainder crosses to the tail processor at completion.
      if (st.split_head > 0 && demand > st.split_head) {
        a.tail_demand = demand - st.split_head;
      }
      a.remaining = demand - a.tail_demand;
      st.res->lags.push_back(a.rec.start_lag);
      ++m_dispatched;
      h_lag.record(a.rec.start_lag);
      if (trace != nullptr) {
        trace->push(obs::EventKind::kDispatch, now, sid, job.frame,
                    job.deadline);
        if (a.rec.overrun) {
          trace->push(obs::EventKind::kFaultInject, now, sid, job.frame,
                      demand, a.aborted ? 1u : 0u);
        }
      }
    }
    a.dispatched_at = now;
    running = a;
  };

  /// Policer side effects of a frame it just aborted.
  auto punish_overrun = [&](StreamState& st) {
    switch (ospec.policy) {
      case OverrunPolicy::kAbortConceal:
        break;
      case OverrunPolicy::kDowngrade: {
        // Force the stream one certified rung below its current
        // effective budget (no-op when already on the qmin rung).
        if (st.ladder == nullptr) break;
        for (std::size_t r = 0; r < st.ladder->size(); ++r) {
          if ((*st.ladder)[r].table_budget < st.enforce_budget) {
            st.force_rung = static_cast<int>(r);
            ++st.res->faults.forced_downgrades;
            break;
          }
        }
        break;
      }
      case OverrunPolicy::kQuarantine: {
        if (++st.strikes < ospec.quarantine_strikes) break;
        st.strikes = 0;
        st.quarantined_until =
            now + static_cast<rt::Cycles>(ospec.quarantine_periods) *
                      st.period;
        st.pending_qmin = true;
        ++st.res->faults.quarantines;
        st.res->quarantined = true;
        if (trace != nullptr) {
          trace->push(obs::EventKind::kQuarantine, now, st.spec->id, -1,
                      st.quarantined_until);
        }
        // Already-queued frames of the offender are dropped too.
        for (auto it = ready.begin(); it != ready.end();) {
          if (it->stream >= 0 &&
              &streams[static_cast<std::size_t>(it->stream)] == &st) {
            st.records[it->frame] = st.session->drop(it->frame);
            ++st.res->faults.quarantine_drops;
            ++m_concealed;
            ts_conceal(st, now);
            if (trace != nullptr) {
              trace->push(
                  obs::EventKind::kConceal, now, st.spec->id, it->frame, 0,
                  static_cast<std::uint32_t>(
                      obs::ConcealReason::kQuarantineDrop));
            }
            --st.queued;
            it = ready.erase(it);
          } else {
            ++it;
          }
        }
        if (trace != nullptr) {
          trace->push(obs::EventKind::kQueueDepth, now, -1, -1,
                      static_cast<std::int64_t>(ready.size()));
        }
        break;
      }
    }
  };

  auto complete = [&] {
    StreamState& st =
        streams[static_cast<std::size_t>(running->job.stream)];
    if (st.relay) {
      // Tail relay completion: the display-deadline verdict and the
      // end-to-end latency are decided here, where the frame actually
      // finishes; the encode itself was accounted at the head.
      const pipe::FrameRecord& rec = running->rec;
      if (now > running->job.deadline) {
        ++st.res->display_misses;
        ++m_display_misses;
        ts_miss(st, now, now - running->job.deadline);
        if (trace != nullptr) {
          trace->push(obs::EventKind::kDeadlineMiss, now, st.spec->id,
                      running->job.frame, now - running->job.deadline);
        }
      } else if (st.res->first_ontime < 0) {
        st.res->first_ontime = now;
      }
      ++m_completed;
      h_latency.record(now - running->job.arrival);
      h_encode.record(rec.encode_cycles);
      ts_complete(st, now, now - running->job.arrival, rec.encode_cycles);
      ts_value(s_busy, now, running->tail_demand);
      if (trace != nullptr) {
        trace->push(obs::EventKind::kComplete, now, st.spec->id,
                    running->job.frame, rec.encode_cycles,
                    static_cast<std::uint32_t>(
                        obs::CompleteOutcome::kDelivered));
      }
      out->busy_cycles += running->tail_demand;
      ++out->frames_encoded;
      span = now;
      running.reset();
      return;
    }
    pipe::FrameRecord rec = running->rec;
    if (running->aborted) {
      rec = st.session->lose(rec);
      ++st.res->faults.aborted_frames;
      punish_overrun(st);
    } else if (inject_loss && running->faults.lost) {
      rec.lost = true;
      rec = st.session->lose(rec);
      ++st.res->faults.lost_frames;
    } else {
      rec = st.session->deliver(rec);
    }
    if (st.split_head > 0 && !rec.concealed) {
      // C=D handoff: the head's service is done and the record is
      // final; the tail piece finishes the remaining demand and does
      // the display accounting.  The head charges only its own share
      // of the service to this processor.
      for (std::size_t ph = 0; ph < rec.phase_cycles.size(); ++ph) {
        h_phase[ph]->record(rec.phase_cycles[ph]);
        phase_total[ph] += static_cast<long long>(rec.phase_cycles[ph]);
        ts_value(s_phase[ph], now,
                 static_cast<long long>(rec.phase_cycles[ph]));
      }
      if (trace != nullptr) {
        trace->push(obs::EventKind::kComplete, now, st.spec->id,
                    running->job.frame, rec.encode_cycles,
                    static_cast<std::uint32_t>(
                        obs::CompleteOutcome::kDelivered));
        for (std::size_t ph = 0; ph < phase_total.size(); ++ph) {
          trace->push(obs::EventKind::kPhaseCycles, now, -1, -1,
                      phase_total[ph], static_cast<std::uint32_t>(ph));
        }
      }
      out->busy_cycles += rec.encode_cycles - running->tail_demand;
      ts_value(s_busy, now, rec.encode_cycles - running->tail_demand);
      st.records[running->job.frame] = rec;
      st.handoff_out->push_back(HandoffEntry{
          running->job.frame, running->job.arrival,
          std::max(running->job.arrival + st.split_head, now),
          running->job.arrival + st.latency, running->tail_demand, rec});
      span = now;
      running.reset();
      return;
    }
    if (!rec.concealed) {
      if (now > running->job.deadline) {
        ++st.res->display_misses;
        ++m_display_misses;
        ts_miss(st, now, now - running->job.deadline);
        if (trace != nullptr) {
          trace->push(obs::EventKind::kDeadlineMiss, now, st.spec->id,
                      running->job.frame, now - running->job.deadline);
        }
      } else if (st.res->first_ontime < 0) {
        st.res->first_ontime = now;
      }
    } else {
      ++m_concealed;
      ts_conceal(st, now);
    }
    ++m_completed;
    h_latency.record(now - running->job.arrival);
    h_encode.record(rec.encode_cycles);
    ts_complete(st, now, now - running->job.arrival, rec.encode_cycles);
    for (std::size_t ph = 0; ph < rec.phase_cycles.size(); ++ph) {
      h_phase[ph]->record(rec.phase_cycles[ph]);
      phase_total[ph] += static_cast<long long>(rec.phase_cycles[ph]);
      ts_value(s_phase[ph], now,
               static_cast<long long>(rec.phase_cycles[ph]));
    }
    if (trace != nullptr) {
      const auto outcome = static_cast<std::uint32_t>(
          running->aborted ? obs::CompleteOutcome::kAborted
          : rec.concealed ? obs::CompleteOutcome::kLost
                          : obs::CompleteOutcome::kDelivered);
      trace->push(obs::EventKind::kComplete, now, st.spec->id,
                  running->job.frame, rec.encode_cycles, outcome);
      for (std::size_t ph = 0; ph < phase_total.size(); ++ph) {
        trace->push(obs::EventKind::kPhaseCycles, now, -1, -1,
                    phase_total[ph], static_cast<std::uint32_t>(ph));
      }
    }
    // A concealed split-head frame's tail share was never served
    // anywhere; only the locally-served cycles are busy time.
    out->busy_cycles += rec.encode_cycles - running->tail_demand;
    ts_value(s_busy, now, rec.encode_cycles - running->tail_demand);
    ++out->frames_encoded;
    st.records[running->job.frame] = rec;
    span = now;
    running.reset();
  };

  /// Conceals a frame caught in service (running or suspended) by a
  /// processor outage: the cycles already burned are charged, the
  /// frame is lost, the viewer keeps the previous picture.  The trace
  /// distinguishes the running frame (whose open service segment this
  /// terminates) from suspended ones (already closed by their
  /// preemption event).
  auto conceal_in_service = [&](const ActiveJob& a, bool was_running) {
    StreamState& st = streams[static_cast<std::size_t>(a.job.stream)];
    if (st.relay) {
      // Relay frame caught by an outage: the head's record stands but
      // the viewer never sees the frame.  No session to run the
      // concealment chain through — mark the loss in place.
      st.records[a.job.frame].lost = true;
      st.records[a.job.frame].concealed = true;
      ++st.res->faults.failure_drops;
      ++out->fault_conceals;
      ++m_concealed;
      ts_conceal(st, now);
      if (trace != nullptr) {
        trace->push(was_running ? obs::EventKind::kConcealService
                                : obs::EventKind::kConceal,
                    now, st.spec->id, a.job.frame,
                    a.tail_demand - a.remaining,
                    static_cast<std::uint32_t>(
                        obs::ConcealReason::kSuspendedOutage));
      }
      out->busy_cycles += a.tail_demand - a.remaining;
      ts_value(s_busy, now, a.tail_demand - a.remaining);
      return;
    }
    pipe::FrameRecord rec = a.rec;
    // Cycles actually consumed on this processor (a split head never
    // held its tail share).
    rec.encode_cycles -= a.remaining + a.tail_demand;
    rec = st.session->lose(rec);
    st.records[a.job.frame] = rec;
    ++st.res->faults.failure_drops;
    ++out->fault_conceals;
    ++m_concealed;
    ts_conceal(st, now);
    if (trace != nullptr) {
      if (was_running) {
        trace->push(obs::EventKind::kConcealService, now, st.spec->id,
                    a.job.frame, rec.encode_cycles,
                    static_cast<std::uint32_t>(
                        obs::ConcealReason::kSuspendedOutage));
      } else {
        trace->push(obs::EventKind::kConceal, now, st.spec->id, a.job.frame,
                    rec.encode_cycles,
                    static_cast<std::uint32_t>(
                        obs::ConcealReason::kSuspendedOutage));
      }
    }
    out->busy_cycles += rec.encode_cycles;
    ts_value(s_busy, now, rec.encode_cycles);
  };

  // The earliest instant the policy lets the top ready job displace
  // the runner; kNever when it would not preempt at all.  Only a
  // strictly earlier display deadline preempts — EDF gains nothing
  // from switching between equal-deadline jobs, so the run queue's
  // (stream, frame) tie-break must not trigger paid context switches.
  auto preemption_at = [&]() -> rt::Cycles {
    if (!running || ready.empty() ||
        ready.begin()->deadline >= running->job.deadline) {
      return kNever;
    }
    const rt::Cycles pp =
        policy->preemption_point(running->dispatched_at, now);
    return pp >= sched::kNeverPreempts ? kNever : std::max(now, pp);
  };

  while (running || !ready.empty() || !arrivals.empty()) {
    // Blackout transitions due now (after completions — a frame
    // finishing exactly at the failure instant was delivered).  Repair
    // first: encoder state was lost, so every session re-syncs with a
    // forced intra frame.
    if (!halted && blackout_until >= 0 && now >= blackout_until) {
      blackout_until = -1;
      for (StreamState& st : streams) {
        if (st.session != nullptr) st.session->reset_reference();
      }
      if (trace != nullptr) {
        trace->push(obs::EventKind::kProcRepair, now, -1, -1, 0);
      }
    }
    while (next_window < windows.size() &&
           now >= windows[next_window].start) {
      const Window& w = windows[next_window++];
      if (trace != nullptr) {
        trace->push(obs::EventKind::kProcFail, now, -1, -1,
                    w.permanent ? -1 : w.end, w.permanent ? 1u : 0u);
      }
      // Everything in flight or queued is lost to the outage.
      if (running) {
        conceal_in_service(*running, true);
        running.reset();
      }
      for (const auto& [key, a] : suspended) {
        conceal_in_service(a, false);
        ready.erase(a.job);
      }
      suspended.clear();
      for (const FrameJob& job : ready) {
        StreamState& st = streams[static_cast<std::size_t>(job.stream)];
        if (st.session != nullptr) {
          st.records[job.frame] = st.session->drop(job.frame);
        } else {
          // Queued relay frame: the head's record stands, concealed.
          st.records[job.frame].lost = true;
          st.records[job.frame].concealed = true;
        }
        ++st.res->faults.failure_drops;
        ++out->fault_conceals;
        ++m_concealed;
        ts_conceal(st, now);
        if (trace != nullptr) {
          trace->push(obs::EventKind::kConceal, now, st.spec->id, job.frame,
                      0,
                      static_cast<std::uint32_t>(
                          obs::ConcealReason::kQueuedOutage));
        }
        --st.queued;
      }
      ready.clear();
      if (trace != nullptr) {
        trace->push(obs::EventKind::kQueueDepth, now, -1, -1, 0);
      }
      if (w.permanent) {
        halted = true;
      } else {
        blackout_until = std::max(blackout_until, w.end);
      }
    }

    // Camera frames due by now enter the input buffers (or are
    // dropped when full, quarantined, or lost to an outage).
    while (!arrivals.empty() && arrivals.top().time <= now) {
      const PendingArrival a = arrivals.top();
      arrivals.pop();
      StreamState& st = streams[static_cast<std::size_t>(a.stream)];
      if (st.relay) {
        // A handed-off tail job becomes ready.  No camera-buffer or
        // quarantine logic — the head already applied both; only an
        // outage on *this* processor can still lose the frame.
        const HandoffEntry& e = (*st.handoff_in)[st.next_handoff++];
        if (st.next_handoff < st.handoff_in->size()) {
          arrivals.push(PendingArrival{
              (*st.handoff_in)[st.next_handoff].release, a.stream});
        }
        if (in_blackout(a.time)) {
          // The head's delivered record stands, but the viewer never
          // sees the frame: mark it concealed in place (the encoder
          // reference lives with the head, which has already moved
          // on — a documented approximation of a mid-chain loss).
          st.records[e.frame].lost = true;
          st.records[e.frame].concealed = true;
          ++st.res->faults.failure_drops;
          ++out->fault_conceals;
          ++m_concealed;
          ts_conceal(st, now);
          if (trace != nullptr) {
            trace->push(obs::EventKind::kConceal, now, st.spec->id,
                        e.frame, 0,
                        static_cast<std::uint32_t>(
                            obs::ConcealReason::kArrivalOutage));
          }
          continue;
        }
        ++st.queued;
        ready.insert(FrameJob{e.deadline, a.stream, e.frame, e.arrival});
        h_qdepth.record(static_cast<long long>(ready.size()));
        ts_value(s_queue, now, static_cast<long long>(ready.size()));
        if (trace != nullptr) {
          trace->push(obs::EventKind::kQueueDepth, now, -1, -1,
                      static_cast<std::int64_t>(ready.size()));
        }
        continue;
      }
      const int f = st.next_arrival++;
      if (st.next_arrival < st.end_frame) {
        arrivals.push(PendingArrival{a.time + st.period, a.stream});
      }
      if (in_blackout(a.time)) {
        // The processor is down: nobody services this frame.
        st.records[f] = st.session->drop(f);
        ++st.res->faults.failure_drops;
        ++out->fault_conceals;
        ++m_concealed;
        ts_conceal(st, now);
        if (trace != nullptr) {
          trace->push(obs::EventKind::kConceal, now, st.spec->id, f, 0,
                      static_cast<std::uint32_t>(
                          obs::ConcealReason::kArrivalOutage));
        }
        continue;
      }
      if (st.quarantined_until >= 0) {
        if (a.time < st.quarantined_until) {
          st.records[f] = st.session->drop(f);
          ++st.res->faults.quarantine_drops;
          ++m_concealed;
          ts_conceal(st, now);
          if (trace != nullptr) {
            trace->push(obs::EventKind::kConceal, now, st.spec->id, f, 0,
                        static_cast<std::uint32_t>(
                            obs::ConcealReason::kQuarantineDrop));
          }
          continue;
        }
        // Quarantine over: re-admit at the qmin rung.
        st.quarantined_until = -1;
        if (st.pending_qmin && st.ladder != nullptr &&
            !st.ladder->empty()) {
          st.force_rung = static_cast<int>(st.ladder->size()) - 1;
        }
        st.pending_qmin = false;
      }
      if (st.queued >= st.spec->buffer_capacity) {
        // Input buffer full: the camera drops the frame.
        st.records[f] = st.session->skip(f);
        ++m_camera_skips;
      } else {
        ++st.queued;
        // A C=D head piece runs under its zero-slack head deadline
        // arrival + C1 (what the admission test certified), not the
        // display deadline — the tail's slack lives downstream.
        const rt::Cycles edf_deadline =
            st.split_head > 0 ? a.time + st.split_head
                              : a.time + st.latency;
        ready.insert(FrameJob{edf_deadline, a.stream, f, a.time});
        h_qdepth.record(static_cast<long long>(ready.size()));
        ts_value(s_queue, now, static_cast<long long>(ready.size()));
        if (trace != nullptr) {
          trace->push(obs::EventKind::kQueueDepth, now, -1, -1,
                      static_cast<std::int64_t>(ready.size()));
        }
      }
    }

    const bool in_outage = halted || blackout_until >= 0;

    // Preemption due now: suspend the runner (switch-out charge); the
    // displacing job is dispatched on the next pass.
    if (preemption_at() <= now) {
      ActiveJob a = *running;
      running.reset();
      suspended.emplace(std::make_pair(a.job.stream, a.job.frame), a);
      ready.insert(a.job);
      ++out->preemptions;
      ++m_preemptions;
      if (trace != nullptr) {
        trace->push(
            obs::EventKind::kPreempt, now,
            streams[static_cast<std::size_t>(a.job.stream)].spec->id,
            a.job.frame, a.remaining);
        trace->push(obs::EventKind::kQueueDepth, now, -1, -1,
                    static_cast<std::int64_t>(ready.size()));
      }
      out->overhead_cycles += ctx;
      now += ctx;
      continue;
    }

    if (!running && !ready.empty() && !in_outage) {
      dispatch();
      continue;
    }

    // Advance to the next event: completion, arrival, an armed
    // quantum-boundary preemption, or a blackout boundary.
    const rt::Cycles t_fin = running ? now + running->remaining : kNever;
    const rt::Cycles t_arr = arrivals.empty() ? kNever : arrivals.top().time;
    const rt::Cycles t_black = next_window < windows.size()
                                   ? windows[next_window].start
                                   : kNever;
    const rt::Cycles t_repair =
        (!halted && blackout_until >= 0) ? blackout_until : kNever;
    rt::Cycles t =
        std::min({t_fin, t_arr, preemption_at(), t_black, t_repair});
    if (t == kNever) break;  // unreachable: some event is always due
    t = std::max(t, now);    // a window may start in the past
    if (running) running->remaining -= t - now;
    now = t;
    if (running && running->remaining == 0) complete();
  }

  out->span_cycles = span;
  out->streams_hosted = static_cast<int>(streams.size());
  out->utilization =
      out->span_cycles > 0
          ? static_cast<double>(out->busy_cycles) /
                static_cast<double>(out->span_cycles)
          : 0.0;
}

}  // namespace

FarmResult run_farm(const FarmScenario& scenario, const FarmConfig& config) {
  QC_EXPECT(config.num_processors >= 1, "farm needs >= 1 processor");
  QC_EXPECT(config.control_epoch >= 0,
            "control epoch must be non-negative");
  QC_EXPECT(std::isfinite(scenario.faults.overrun.factor) &&
                scenario.faults.overrun.factor > 1.0,
            "overrun factor must be finite and > 1");
  for (const FailureEvent& ev : scenario.faults.failures) {
    QC_EXPECT(ev.processor >= 0 && ev.processor < config.num_processors,
              "failure event targets a processor outside the farm");
    QC_EXPECT(ev.time >= 0 && ev.repair >= 0,
              "failure event times must be non-negative");
  }

  FarmResult result;
  result.sched = scenario.sched;
  result.fault_spec = scenario.faults;
  result.farm_seed = config.seed;

  // Observability sinks.  The recorder exists only when tracing is
  // requested; its control buffer serves the sequential control plane
  // and each data-plane processor owns buffer p — merged in index
  // order, the trace is independent of the worker count.
  std::optional<obs::TraceRecorder> recorder;
  if (config.trace) {
    QC_EXPECT(config.trace_buffer_capacity > 0,
              "trace buffer capacity must be positive");
    recorder.emplace(config.num_processors,
                     static_cast<std::size_t>(config.trace_buffer_capacity));
  }
  obs::TraceBuffer* ctrace =
      recorder.has_value() ? recorder->control() : nullptr;
  // Windowed time series mirror the trace's ownership split: one
  // single-writer recorder per virtual processor plus one for the
  // sequential control plane, merged in index order afterwards.
  std::vector<obs::SeriesRecorder> series_rec;
  if (config.ts_window > 0) {
    series_rec.reserve(static_cast<std::size_t>(config.num_processors) + 1);
    for (int p = 0; p <= config.num_processors; ++p) {
      series_rec.emplace_back(config.ts_window);
    }
  }
  obs::SeriesRecorder* cseries =
      series_rec.empty() ? nullptr : &series_rec.back();
  result.streams.reserve(scenario.streams.size());
  for (const StreamSpec& spec : scenario.streams) {
    StreamOutcome so;
    so.spec = spec;
    result.streams.push_back(std::move(so));
  }
  result.processors.resize(static_cast<std::size_t>(config.num_processors));
  result.failures.reserve(scenario.faults.failures.size());
  for (const FailureEvent& ev : scenario.faults.failures) {
    FailureOutcome fo;
    fo.event = ev;
    result.failures.push_back(fo);
  }

  // ----- Control plane: global join/leave/failure event queue, in
  // time order.  Joins at equal times are processed in stream-id
  // order; a leave releases its commitment before any join at or
  // after it; a permanent failure is handled before any join at or
  // after it (so newcomers never land on a dead processor) and after
  // leaves at the same instant.
  std::vector<StreamOutcome*> join_order;
  join_order.reserve(result.streams.size());
  for (StreamOutcome& so : result.streams) join_order.push_back(&so);
  std::sort(join_order.begin(), join_order.end(),
            [](const StreamOutcome* a, const StreamOutcome* b) {
              return std::tie(a->spec.join_time, a->spec.id) <
                     std::tie(b->spec.join_time, b->spec.id);
            });
  std::map<int, StreamOutcome*> by_id;
  for (StreamOutcome& so : result.streams) by_id[so.spec.id] = &so;

  TableCache tables(platform::figure5_cost_table());
  ShardPlaneConfig shard_cfg;
  shard_cfg.shards = config.shards;
  shard_cfg.probe_shards = config.probe_shards;
  shard_cfg.rebalance_watermark = config.rebalance_watermark;
  ShardedControlPlane plane(config.num_processors, shard_cfg,
                            config.admission, &tables, scenario.sched);

  // Control-plane series: fleet admission/rebalance rates, plus one
  // `/shard<k>` variant per shard when the plane is actually sharded.
  obs::SeriesTrack* cs_admitted = nullptr;
  obs::SeriesTrack* cs_rejected = nullptr;
  obs::SeriesTrack* cs_rebalance = nullptr;
  std::vector<obs::SeriesTrack*> cs_admitted_shard;
  std::vector<obs::SeriesTrack*> cs_rebalance_shard;
  if (cseries != nullptr) {
    cs_admitted = &cseries->track("admitted");
    cs_rejected = &cseries->track("rejected");
    cs_rebalance = &cseries->track("rebalance");
    if (plane.num_shards() > 1) {
      for (int s = 0; s < plane.num_shards(); ++s) {
        cs_admitted_shard.push_back(
            &cseries->track("admitted/shard" + std::to_string(s)));
        cs_rebalance_shard.push_back(
            &cseries->track("rebalance/shard" + std::to_string(s)));
      }
    }
  }
  auto cs_record = [&](obs::SeriesTrack* t, rt::Cycles at, long long v) {
    if (t != nullptr) cseries->record(*t, at, v);
  };

  using Leave = std::pair<rt::Cycles, int>;  // (leave time, stream id)
  std::priority_queue<Leave, std::vector<Leave>, std::greater<Leave>> leaves;

  // Permanent failures in control-plane order: (time, processor,
  // scenario index).
  std::vector<std::size_t> perm;
  for (std::size_t k = 0; k < scenario.faults.failures.size(); ++k) {
    if (scenario.faults.failures[k].permanent()) perm.push_back(k);
  }
  std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    const FailureEvent& ea = scenario.faults.failures[a];
    const FailureEvent& eb = scenario.faults.failures[b];
    return std::tie(ea.time, ea.processor, a) <
           std::tie(eb.time, eb.processor, b);
  });
  std::size_t next_perm = 0;

  // Budget changes imposed on running streams — shrinks by admission,
  // grows by a departure's restore pass — each open a new budget epoch
  // on their stream at the change's effective time (on the stream's
  // currently-running segment: the latest failover one, if any).
  auto apply_renegotiations = [&] {
    for (BudgetRenegotiation& r : plane.take_renegotiations()) {
      StreamOutcome* victim = by_id.at(r.stream_id);
      if (ctrace != nullptr) {
        ctrace->push(r.grow ? obs::EventKind::kRestore
                            : obs::EventKind::kRenegotiate,
                     r.effective_time, r.stream_id, -1, r.table_budget);
      }
      if (r.grow) {
        if (!victim->restored) {
          victim->restored = true;
          ++result.restored_streams;
        }
      } else if (!victim->renegotiated) {
        victim->renegotiated = true;
        ++result.renegotiated_streams;
      }
      std::vector<BudgetEpoch>& epochs = victim->failover.empty()
                                             ? victim->epochs
                                             : victim->failover.back().epochs;
      epochs.push_back(BudgetEpoch{r.effective_time, r.table_budget,
                                   r.committed_cost, std::move(r.system)});
    }
  };

  std::vector<double> shard_peaks(static_cast<std::size_t>(config.shards),
                                  0.0);
  auto note_peak = [&](int processor) {
    auto& proc = result.processors[static_cast<std::size_t>(processor)];
    const double u = plane.committed_utilization(processor);
    proc.peak_committed_utilization =
        std::max(proc.peak_committed_utilization, u);
    auto& sp = shard_peaks[static_cast<std::size_t>(plane.shard_of(processor))];
    sp = std::max(sp, u);
  };

  /// A permanent processor failure: mark it dead, then release and
  /// re-admit its residents one by one (ascending stream id) across
  /// the survivors — migration, degradation, and renegotiation all
  /// apply, exactly as for a fresh join.  Each successful re-admission
  /// opens a failover segment serving the stream's first frame not yet
  /// due on the dead processor.
  auto handle_failure = [&](std::size_t k) {
    const FailureEvent& ev = scenario.faults.failures[k];
    FailureOutcome& fo = result.failures[k];
    if (plane.processor_failed(ev.processor)) return;  // already dead
    plane.fail_processor(ev.processor);
    auto& po = result.processors[static_cast<std::size_t>(ev.processor)];
    po.failed = true;
    po.failed_at = ev.time;
    for (int id : plane.resident_stream_ids(ev.processor)) {
      StreamOutcome* so = by_id.at(id);
      plane.release(id, ev.time);
      apply_renegotiations();
      ++fo.displaced;
      const rt::Cycles period = period_of(so->spec);
      // First frame the survivors serve: the first arrival strictly
      // after the failure instant (an arrival at the instant itself is
      // concealed by the dying processor's blackout).
      const rt::Cycles elapsed = ev.time - so->spec.join_time;
      int ff = elapsed >= 0
                   ? static_cast<int>(elapsed / period) + 1
                   : 0;
      if (ff >= so->spec.num_frames) continue;  // nothing left to serve
      StreamSpec resume = so->spec;
      resume.join_time =
          so->spec.join_time + static_cast<rt::Cycles>(ff) * period;
      resume.num_frames = so->spec.num_frames - ff;
      const Placement pl = plane.admit(resume);
      apply_renegotiations();
      if (!pl.admitted) {
        // No survivor can host it: the remaining frames stay with the
        // halted processor, which conceals every one of them.
        ++fo.dropped;
        ++result.failover_drops;
        if (ctrace != nullptr) {
          ctrace->push(obs::EventKind::kFailoverDrop, ev.time, id, -1,
                       ev.processor);
        }
        continue;
      }
      ++fo.readmitted;
      ++result.failover_readmissions;
      if (ctrace != nullptr) {
        ctrace->push(obs::EventKind::kFailover, ev.time, id, -1,
                     pl.processor);
      }
      FailoverSegment seg;
      seg.failure_index = static_cast<int>(k);
      seg.from_time = ev.time;
      seg.first_frame = ff;
      seg.placement = pl;
      seg.epochs.push_back(BudgetEpoch{resume.join_time, pl.table_budget,
                                       pl.committed_cost, pl.system});
      so->failover.push_back(std::move(seg));
      note_peak(pl.processor);
      // The stream keeps its original leave time (same last frame), so
      // the leave entry already queued releases the new commitment.
    }
  };

  /// Processes every leave and permanent failure due at or before
  /// `t_limit`, leaves first at equal instants.
  auto drain_until = [&](rt::Cycles t_limit) {
    while (true) {
      const rt::Cycles t_leave = leaves.empty() ? kNever : leaves.top().first;
      const rt::Cycles t_fail =
          next_perm < perm.size()
              ? scenario.faults.failures[perm[next_perm]].time
              : kNever;
      if (t_leave == kNever && t_fail == kNever) break;
      if (t_leave > t_limit && t_fail > t_limit) break;
      if (t_leave <= t_fail) {
        plane.release(leaves.top().second, leaves.top().first);
        leaves.pop();
        apply_renegotiations();
      } else {
        handle_failure(perm[next_perm++]);
      }
    }
  };

  /// Cross-shard rebalancing, run after each control batch: migrate
  /// residents off the hottest shard while its pressure exceeds the
  /// watermark.  Each migration opens a failover segment with
  /// failure_index -1 — the data plane treats it exactly like a
  /// failover hand-off, minus the blackout.  The per-batch cap bounds
  /// churn even under adversarial load.
  auto run_rebalancer = [&](rt::Cycles now) {
    if (config.rebalance_watermark <= 0.0) return;
    const int cap = 4 * plane.num_shards();
    int moved = 0;
    ShardMigration mg;
    while (moved < cap && plane.rebalance_step(now, &mg)) {
      ++moved;
      ++result.rebalance_migrations;
      StreamOutcome* so = by_id.at(mg.stream_id);
      FailoverSegment seg;
      seg.failure_index = -1;
      seg.from_time = now;
      // mg.from_time is the first arrival the new placement serves;
      // against the stream's original join it names the absolute frame
      // index even after repeated migrations.
      seg.first_frame = static_cast<int>((mg.from_time - so->spec.join_time) /
                                         period_of(so->spec));
      seg.placement = mg.placement;
      seg.epochs.push_back(BudgetEpoch{mg.from_time,
                                       mg.placement.table_budget,
                                       mg.placement.committed_cost,
                                       mg.placement.system});
      so->failover.push_back(std::move(seg));
      note_peak(mg.placement.processor);
      cs_record(cs_rebalance, now, 1);
      if (!cs_rebalance_shard.empty()) {
        cs_record(cs_rebalance_shard[static_cast<std::size_t>(mg.to_shard)],
                  now, 1);
      }
      if (ctrace != nullptr) {
        ctrace->push(obs::EventKind::kRebalance, now, mg.stream_id, -1,
                     mg.placement.processor,
                     static_cast<std::uint32_t>(mg.to_shard));
      }
      apply_renegotiations();
    }
  };

  // Joins, grouped into control batches: all joins in the same control
  // epoch window form one batch (every join is its own batch when no
  // epoch is configured).  Each join is still processed one at a time
  // in (time, id) order — batching sets the rebalance cadence and the
  // storm accounting, never the admission decisions.
  const rt::Cycles epoch = config.control_epoch;
  for (std::size_t b = 0; b < join_order.size();) {
    std::size_t e = b + 1;
    if (epoch > 0) {
      const rt::Cycles window = join_order[b]->spec.join_time / epoch;
      while (e < join_order.size() &&
             join_order[e]->spec.join_time / epoch == window) {
        ++e;
      }
    }
    for (std::size_t j = b; j < e; ++j) {
      StreamOutcome* so = join_order[j];
      drain_until(so->spec.join_time);
      so->placement = plane.admit(so->spec);
      apply_renegotiations();
      if (so->placement.admitted) {
        so->epochs.insert(
            so->epochs.begin(),
            BudgetEpoch{so->spec.join_time, so->placement.table_budget,
                        so->placement.committed_cost, so->placement.system});
        leaves.emplace(leave_time_of(so->spec), so->spec.id);
        note_peak(so->placement.processor);
        cs_record(cs_admitted, so->spec.join_time, 1);
        if (!cs_admitted_shard.empty()) {
          cs_record(cs_admitted_shard[static_cast<std::size_t>(
                        plane.shard_of(so->placement.processor))],
                    so->spec.join_time, 1);
        }
        if (ctrace != nullptr) {
          const std::uint32_t flags =
              (so->placement.migrated ? 1u : 0u) |
              (so->placement.degraded ? 2u : 0u) |
              (so->placement.via_renegotiation ? 4u : 0u);
          ctrace->push(obs::EventKind::kAdmit, so->spec.join_time,
                       so->spec.id, -1, so->placement.processor, flags);
          if (so->placement.migrated) {
            ctrace->push(obs::EventKind::kMigrate, so->spec.join_time,
                         so->spec.id, -1, so->placement.processor);
          }
        }
      } else {
        cs_record(cs_rejected, so->spec.join_time, 1);
        if (ctrace != nullptr) {
          ctrace->push(obs::EventKind::kReject, so->spec.join_time,
                       so->spec.id, -1, -1);
        }
      }
    }
    const rt::Cycles batch_end = join_order[e - 1]->spec.join_time;
    if (epoch > 0) {
      ++result.join_batches;
      result.max_join_batch =
          std::max(result.max_join_batch, static_cast<int>(e - b));
      if (ctrace != nullptr) {
        ctrace->push(obs::EventKind::kJoinBatch, batch_end, -1, -1,
                     static_cast<std::int64_t>(e - b));
      }
    }
    run_rebalancer(batch_end);
    b = e;
  }
  // Departures and failures after the last join: drain to the end —
  // restore passes still grow long-lived incumbents, and a late
  // failure still displaces whoever remains.
  drain_until(kNever);

  // ----- Certified budget ladders for the overrun policer (compiled
  // on the control plane: TableCache is not thread-safe).
  const bool need_ladders =
      scenario.faults.overrun.enabled() &&
      scenario.faults.overrun.policy != OverrunPolicy::kAbortConceal;
  std::vector<std::vector<CertifiedRung>> ladders(result.streams.size());
  if (need_ladders) {
    for (std::size_t i = 0; i < result.streams.size(); ++i) {
      const StreamOutcome& so = result.streams[i];
      if (!so.placement.admitted || so.placement.split ||
          so.spec.mode != pipe::ControlMode::kControlled) {
        // Split placements get no ladder: their two pieces are priced
        // as one immutable commitment, so the policer's downgrade and
        // quarantine re-entry rungs would not match what was admitted.
        continue;
      }
      ladders[i] = plane.certified_ladder(
          macroblocks_of(so.spec), latency_of(so.spec), period_of(so.spec));
    }
  }

  // ----- Outage windows per processor, from the injected failures.
  std::vector<std::vector<Window>> windows(
      static_cast<std::size_t>(config.num_processors));
  for (const FailureEvent& ev : scenario.faults.failures) {
    Window w;
    w.start = ev.time;
    w.end = ev.permanent() ? kNever : ev.time + ev.repair;
    w.permanent = ev.permanent();
    windows[static_cast<std::size_t>(ev.processor)].push_back(w);
  }
  for (auto& ws : windows) {
    std::sort(ws.begin(), ws.end(), [](const Window& a, const Window& b) {
      return std::tie(a.start, a.end) < std::tie(b.start, b.end);
    });
  }

  // ----- Data plane: one run queue per processor, workers in
  // parallel.  Each admitted stream contributes one segment per
  // placement (base + failovers), covering disjoint frame ranges of a
  // shared per-stream record array.
  std::vector<std::vector<pipe::FrameRecord>> records(result.streams.size());
  std::vector<std::vector<SegmentResult>> seg_results(result.streams.size());
  // Handoff buffers for C=D split segments, one per (stream, segment):
  // written by the head piece's processor, read by the tail's — which
  // the level-ordered worker pool below runs strictly later.
  std::vector<std::vector<std::vector<HandoffEntry>>> handoffs(
      result.streams.size());
  std::vector<std::vector<Assignment>> per_processor(
      static_cast<std::size_t>(config.num_processors));
  for (StreamOutcome* so : join_order) {
    if (!so->placement.admitted) continue;
    const std::size_t i =
        static_cast<std::size_t>(so - result.streams.data());
    records[i].resize(static_cast<std::size_t>(so->spec.num_frames));
    seg_results[i].resize(1 + so->failover.size());
    handoffs[i].resize(1 + so->failover.size());
    const std::vector<CertifiedRung>* ladder =
        ladders[i].empty() ? nullptr : &ladders[i];
    auto segment_end = [&](std::size_t seg) {
      return seg < so->failover.size()
                 ? so->failover[seg].first_frame
                 : so->spec.num_frames;
    };
    // A split segment contributes two assignments (head + tail relay)
    // sharing records and tallies; a whole segment contributes one.
    auto add_segment = [&](int seg, const Placement& pl, int first) {
      Assignment asg;
      asg.so = so;
      asg.segment = seg;
      asg.first_frame = first;
      asg.end_frame = segment_end(static_cast<std::size_t>(seg));
      asg.records = records[i].data();
      asg.res = &seg_results[i][static_cast<std::size_t>(seg)];
      asg.ladder = ladder;
      if (pl.split) {
        asg.split_head = pl.head_cost;
        asg.handoff_out = &handoffs[i][static_cast<std::size_t>(seg)];
        per_processor[static_cast<std::size_t>(pl.processor)].push_back(
            asg);
        Assignment tail = asg;
        tail.split_head = 0;
        tail.handoff_out = nullptr;
        tail.handoff_in = &handoffs[i][static_cast<std::size_t>(seg)];
        per_processor[static_cast<std::size_t>(pl.tail_processor)]
            .push_back(tail);
      } else {
        per_processor[static_cast<std::size_t>(pl.processor)].push_back(
            asg);
      }
    };
    add_segment(0, so->placement, 0);
    for (std::size_t k = 0; k < so->failover.size(); ++k) {
      add_segment(static_cast<int>(k) + 1, so->failover[k].placement,
                  so->failover[k].first_frame);
    }
  }

  const int workers = std::clamp(config.workers, 1, config.num_processors);
  // Per-processor metric registries: each worker writes only its
  // processor's, so no locking; merged in index order afterwards, the
  // totals are worker-count independent.
  std::vector<obs::Registry> proc_metrics(
      static_cast<std::size_t>(config.num_processors));

  // C=D handoff dependencies: a tail processor may only run once every
  // head processor feeding it has finished (the relay reads the head's
  // completed handoff buffer).  Heads always carry the lower index
  // (admission guarantees it), so one ascending pass computes final
  // levels; without splits every processor sits at level 0 and the
  // pool degenerates to the old single fully-parallel drain.
  std::vector<int> level(static_cast<std::size_t>(config.num_processors),
                         0);
  {
    std::vector<std::vector<int>> feeders(
        static_cast<std::size_t>(config.num_processors));
    auto note_split = [&](const Placement& pl) {
      if (pl.split) {
        feeders[static_cast<std::size_t>(pl.tail_processor)].push_back(
            pl.processor);
      }
    };
    for (const StreamOutcome& so : result.streams) {
      if (!so.placement.admitted) continue;
      note_split(so.placement);
      for (const FailoverSegment& seg : so.failover) {
        note_split(seg.placement);
      }
    }
    for (int p = 0; p < config.num_processors; ++p) {
      for (const int a : feeders[static_cast<std::size_t>(p)]) {
        level[static_cast<std::size_t>(p)] =
            std::max(level[static_cast<std::size_t>(p)],
                     level[static_cast<std::size_t>(a)] + 1);
      }
    }
  }
  std::vector<std::vector<int>> by_level(
      static_cast<std::size_t>(
          *std::max_element(level.begin(), level.end())) +
      1);
  for (int p = 0; p < config.num_processors; ++p) {
    by_level[static_cast<std::size_t>(
                 level[static_cast<std::size_t>(p)])]
        .push_back(p);
  }
  for (const std::vector<int>& procs : by_level) {
    std::atomic<std::size_t> next_slot{0};
    auto drain = [&] {
      for (std::size_t s = next_slot.fetch_add(1); s < procs.size();
           s = next_slot.fetch_add(1)) {
        const int p = procs[s];
        run_processor(config, scenario.sched, scenario.faults,
                      windows[static_cast<std::size_t>(p)],
                      per_processor[static_cast<std::size_t>(p)],
                      &result.processors[static_cast<std::size_t>(p)],
                      &proc_metrics[static_cast<std::size_t>(p)],
                      recorder.has_value() ? recorder->processor(p)
                                           : nullptr,
                      series_rec.empty()
                          ? nullptr
                          : &series_rec[static_cast<std::size_t>(p)]);
      }
    };
    const int nthreads =
        std::min(workers, static_cast<int>(procs.size()));
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(nthreads - 1));
    for (int w = 1; w < nthreads; ++w) pool.emplace_back(drain);
    drain();
    for (std::thread& t : pool) t.join();
  }

  // ----- Stitch segments back into per-stream outcomes.
  for (std::size_t i = 0; i < result.streams.size(); ++i) {
    StreamOutcome& so = result.streams[i];
    if (!so.placement.admitted) continue;
    std::vector<rt::Cycles> lags;
    for (const SegmentResult& sr : seg_results[i]) {
      so.display_misses += sr.display_misses;
      so.faults.overruns_injected += sr.faults.overruns_injected;
      so.faults.overruns_policed += sr.faults.overruns_policed;
      so.faults.aborted_frames += sr.faults.aborted_frames;
      so.faults.forced_downgrades += sr.faults.forced_downgrades;
      so.faults.quarantines += sr.faults.quarantines;
      so.faults.quarantine_drops += sr.faults.quarantine_drops;
      so.faults.lost_frames += sr.faults.lost_frames;
      so.faults.failure_drops += sr.faults.failure_drops;
      so.quarantined = so.quarantined || sr.quarantined;
      lags.insert(lags.end(), sr.lags.begin(), sr.lags.end());
    }
    if (!lags.empty()) {
      double lag_sum = 0.0;
      for (rt::Cycles lag : lags) {
        so.max_start_lag = std::max(so.max_start_lag, lag);
        lag_sum += static_cast<double>(lag);
      }
      so.mean_start_lag = lag_sum / static_cast<double>(lags.size());
      std::sort(lags.begin(), lags.end());
      so.start_lag_p95 =
          lags[static_cast<std::size_t>(0.95 *
                                        static_cast<double>(lags.size() - 1))];
    }
    so.result = pipe::aggregate_records(
        std::move(records[i]), so.placement.table_budget,
        stream_pipeline_config(so.spec, config.seed, config.frame_rate)
            .rate.frame_rate);
    so.internal_misses = so.result.total_deadline_misses;
  }

  // Recovery latency per permanent failure: time from the failure
  // instant to the first on-time delivered frame of each re-admitted
  // segment.
  for (const StreamOutcome& so : result.streams) {
    const std::size_t i =
        static_cast<std::size_t>(&so - result.streams.data());
    for (std::size_t k = 0; k < so.failover.size(); ++k) {
      const FailoverSegment& seg = so.failover[k];
      const SegmentResult& sr = seg_results[i][k + 1];
      if (seg.failure_index < 0 || sr.first_ontime < 0) continue;
      FailureOutcome& fo =
          result.failures[static_cast<std::size_t>(seg.failure_index)];
      ++fo.recovered;
      const rt::Cycles latency = sr.first_ontime - fo.event.time;
      fo.first_recovery = fo.first_recovery < 0
                              ? latency
                              : std::min(fo.first_recovery, latency);
      fo.full_recovery = std::max(fo.full_recovery, latency);
    }
  }

  // ----- Fleet aggregates.
  result.total_streams = static_cast<int>(result.streams.size());
  result.quality_histogram.assign(
      platform::figure5_quality_levels().size(), 0);
  for (const ProcessorOutcome& po : result.processors) {
    result.total_preemptions += po.preemptions;
    result.total_overhead_cycles += po.overhead_cycles;
  }
  double psnr_sum = 0.0, ssim_sum = 0.0, quality_sum = 0.0;
  for (const StreamOutcome& so : result.streams) {
    if (!so.placement.admitted) {
      ++result.rejected;
      continue;
    }
    ++result.admitted;
    result.migrated += so.placement.migrated ? 1 : 0;
    result.degraded += so.placement.degraded ? 1 : 0;
    result.split_streams += so.placement.split ? 1 : 0;
    result.admitted_via_renegotiation +=
        so.placement.via_renegotiation ? 1 : 0;
    result.total_frames += static_cast<long long>(so.result.frames.size());
    result.total_skips += so.result.total_skips;
    result.total_concealed += so.result.total_concealed;
    result.total_display_misses += so.display_misses;
    result.total_internal_misses += so.internal_misses;
    result.faults_total.overruns_injected += so.faults.overruns_injected;
    result.faults_total.overruns_policed += so.faults.overruns_policed;
    result.faults_total.aborted_frames += so.faults.aborted_frames;
    result.faults_total.forced_downgrades += so.faults.forced_downgrades;
    result.faults_total.quarantines += so.faults.quarantines;
    result.faults_total.quarantine_drops += so.faults.quarantine_drops;
    result.faults_total.lost_frames += so.faults.lost_frames;
    result.faults_total.failure_drops += so.faults.failure_drops;
    if (so.quarantined) ++result.quarantined_streams;
    for (const pipe::FrameRecord& fr : so.result.frames) {
      psnr_sum += fr.psnr;
      ssim_sum += fr.ssim;
      if (fr.skipped || (fr.concealed && fr.encode_cycles == 0)) continue;
      ++result.encoded_frames;
      quality_sum += fr.mean_quality;
      const auto bucket = static_cast<std::size_t>(std::lround(
          std::clamp(fr.mean_quality, 0.0,
                     static_cast<double>(
                         result.quality_histogram.size() - 1))));
      ++result.quality_histogram[bucket];
    }
  }
  result.rejection_rate =
      result.total_streams > 0
          ? static_cast<double>(result.rejected) /
                static_cast<double>(result.total_streams)
          : 0.0;
  result.fleet_mean_psnr =
      result.total_frames > 0
          ? psnr_sum / static_cast<double>(result.total_frames)
          : 0.0;
  result.fleet_mean_ssim =
      result.total_frames > 0
          ? ssim_sum / static_cast<double>(result.total_frames)
          : 0.0;
  result.fleet_mean_quality =
      result.encoded_frames > 0
          ? quality_sum / static_cast<double>(result.encoded_frames)
          : 0.0;

  // ----- Observability finalization: merge the per-processor metric
  // registries in index order, then the control plane's — the result
  // is a pure function of (scenario, config).
  for (const obs::Registry& r : proc_metrics) result.metrics.merge(r);
  obs::Registry control;
  control.counter("admission_accepted") = result.admitted;
  control.counter("admission_rejected") = result.rejected;
  control.counter("admission_migrations") = result.migrated;
  control.counter("admission_renegotiations") = result.renegotiated_streams;
  control.counter("admission_restores") = result.restored_streams;
  control.counter("failover_readmissions") = result.failover_readmissions;
  control.counter("failover_drops") = result.failover_drops;
  const sched::EdfScanStats scan = plane.scan_stats();
  control.counter("admission_demand_tests") = scan.demand_tests;
  control.counter("admission_busy_iterations") = scan.busy_iterations;
  control.counter("admission_check_points") = scan.check_points;
  control.counter("admission_qpa_points") = scan.qpa_points;
  control.counter("admission_splits") = plane.split_count();
  control.counter("join_batches") = result.join_batches;
  control.counter("rebalance_migrations") = result.rebalance_migrations;
  result.metrics.merge(control);

  // ----- Per-shard outcomes (the report layers render them only when
  // the plane is actually sharded, keeping single-shard output stable).
  result.shards = plane.num_shards();
  result.shard_outcomes.resize(static_cast<std::size_t>(plane.num_shards()));
  for (int s = 0; s < plane.num_shards(); ++s) {
    ShardOutcome& o = result.shard_outcomes[static_cast<std::size_t>(s)];
    o.first_processor = plane.shard_base(s);
    o.num_processors = plane.shard_size(s);
    const ShardStats& st = plane.shard_stats(s);
    o.admitted = st.admitted;
    o.probe_admits = st.probe_admits;
    o.rejected = st.rejected;
    o.migrations_in = st.migrations_in;
    o.migrations_out = st.migrations_out;
    o.demand_tests = plane.shard_scan_stats(s).demand_tests;
    o.peak_committed_utilization =
        shard_peaks[static_cast<std::size_t>(s)];
  }
  // ----- Windowed series merge: processors in index order, control
  // plane last.  Each processor's busy_cycles track is additionally
  // kept under busy_cycles/cpu<p> — the per-processor utilization
  // heatmap — while the plain track aggregates the fleet.
  if (!series_rec.empty()) {
    for (int p = 0; p < config.num_processors; ++p) {
      const obs::SeriesRecorder& r =
          series_rec[static_cast<std::size_t>(p)];
      result.series.merge(r);
      const auto it = r.tracks().find("busy_cycles");
      if (it != r.tracks().end() && !it->second.empty()) {
        result.series.tracks["busy_cycles/cpu" + std::to_string(p)] =
            it->second;
      }
    }
    result.series.merge(*cseries);
  }

  // ----- SLO verdicts over the merged series plus the per-failure
  // recovery latencies.  Burn-rate alerts are echoed onto the trace's
  // control-plane row (before the merge below, so they sort in).
  if (!config.slos.empty()) {
    obs::SloInputs slo_inputs;
    slo_inputs.series = &result.series;
    for (const StreamOutcome& so : result.streams) {
      slo_inputs.reference_window =
          std::max(slo_inputs.reference_window, latency_of(so.spec));
    }
    for (const FailureOutcome& fo : result.failures) {
      if (fo.readmitted + fo.dropped == 0) continue;
      const bool recovered =
          fo.dropped == 0 && fo.recovered >= fo.readmitted;
      slo_inputs.recovery_latencies.push_back(recovered ? fo.full_recovery
                                                        : -1);
    }
    result.slo = obs::evaluate_slos(config.slos, slo_inputs);
    if (ctrace != nullptr && config.ts_window > 0) {
      for (std::size_t i = 0; i < result.slo.objectives.size(); ++i) {
        for (const obs::SloAlert& al : result.slo.objectives[i].alerts) {
          ctrace->push(obs::EventKind::kSloAlert,
                       (al.window + 1) * config.ts_window, -1, -1,
                       al.window, static_cast<std::uint32_t>(i));
        }
      }
    }
  }

  if (recorder.has_value()) {
    result.trace = recorder->merged();
    result.trace_dropped = recorder->dropped();
    result.trace_dropped_per_buffer.reserve(
        static_cast<std::size_t>(config.num_processors) + 1);
    for (int p = 0; p <= config.num_processors; ++p) {
      result.trace_dropped_per_buffer.push_back(
          recorder->processor(p)->dropped());
    }
  }
  result.metrics.counter("trace_dropped") = result.trace_dropped;
  return result;
}

}  // namespace qosctrl::farm
