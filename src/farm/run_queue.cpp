#include "farm/run_queue.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <tuple>
#include <utility>

#include "farm/probe.h"
#include "util/rng.h"

namespace qosctrl::farm {

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
  cfg.rate.frame_rate = frame_rate_of(spec, nominal_fps);
  util::Rng derive = util::Rng(farm_seed).fork(
      static_cast<std::uint64_t>(spec.id));
  cfg.seed = spec.seed != 0 ? spec.seed : derive.next_u64();
  cfg.video.seed = derive.next_u64();
  return cfg;
}

namespace {

/// Camera periods a stream spends quarantined (OverrunPolicy::kQuarantine).
constexpr rt::Cycles kQuarantinePeriods = 4;

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

/// An assigned segment's simulation state on its processor.  A tail
/// relay has *no session*: every session-touching path checks relay().
struct StreamState : Assignment {
  std::unique_ptr<pipe::StreamSession> session;
  std::optional<FaultPlan> plan;
  rt::Cycles period = 0;
  rt::Cycles latency = 0;
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
  std::size_t next_handoff = 0;  ///< next handoff entry to release

  bool relay() const { return handoff_in != nullptr; }
};

/// A frame in service, or suspended mid-service by a preemption.  Its
/// content, bits and total demand are fixed at first dispatch (the
/// encode is a pure function of the stream's own state); the scheduler
/// then accounts the demand cycle-accurately across service segments.
struct ActiveJob {
  FrameJob job{};
  pipe::FrameRecord rec{};
  FrameFaults faults{};          ///< drawn once at first dispatch
  bool aborted = false;          ///< cut off by the budget policer
  rt::Cycles remaining = 0;      ///< service cycles still owed
  rt::Cycles dispatched_at = 0;  ///< start of the current segment
  /// Cycles this processor does *not* serve: a split head's share for
  /// the tail; on a relay, the full relayed demand (so outage
  /// accounting knows what was consumed locally).
  rt::Cycles tail_demand = 0;
};

}  // namespace

void run_processor(const FarmConfig& config, const SchedulingSpec& sched,
                   const FaultSpec& fault_spec,
                   const std::vector<Window>& windows,
                   const std::vector<Assignment>& assigned, Probe& probe) {
  const sched::SchedPolicy policy(sched.policy);
  const rt::Cycles ctx = policy.context_switch_cost();
  const bool police_overruns = fault_spec.overrun.enabled();
  const bool inject_loss = fault_spec.loss.enabled();
  const OverrunSpec& ospec = fault_spec.overrun;

  // Arrival events (time, stream index), earliest then lowest stream
  // first.  Frame f arrives at join_time + f * P; a relay's arrivals
  // are the handoff entries its head wrote before this level ran.
  using Arrival = std::pair<rt::Cycles, int>;
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<Arrival>>
      arrivals;
  std::vector<StreamState> streams;
  streams.reserve(assigned.size());
  for (const Assignment& asg : assigned) {
    const int index = static_cast<int>(streams.size());
    StreamState& st = streams.emplace_back();
    static_cast<Assignment&>(st) = asg;
    probe.on_host();
    st.period = period_of(*st.spec);
    st.latency = latency_of(*st.spec);
    st.next_arrival = asg.first_frame;
    if (st.relay()) {
      if (!st.handoff_in->empty()) {
        arrivals.emplace(st.handoff_in->front().release, index);
      }
      continue;
    }
    const BudgetEpoch& initial = st.epochs->front();
    st.session = std::make_unique<pipe::StreamSession>(
        stream_pipeline_config(*st.spec, config.seed, config.frame_rate),
        initial.table_budget, initial.system);
    if (fault_spec.any()) st.session->track_delivery();
    st.plan.emplace(fault_spec, config.seed, st.spec->id);
    st.enforce_budget = initial.table_budget;
    st.enforce_cost = initial.committed_cost;
    if (st.first_frame < st.end_frame) {
      arrivals.emplace(
          st.spec->join_time + rt::Cycles{st.first_frame} * st.period, index);
    }
  }
  auto stream_of = [&](const FrameJob& job) -> StreamState& {
    return streams[static_cast<std::size_t>(job.stream)];
  };

  std::set<FrameJob> ready;  ///< the run queue, EDF by display deadline
  /// Jobs suspended mid-service, keyed by (stream, frame).
  std::map<std::pair<int, int>, ActiveJob> suspended;
  std::optional<ActiveJob> running;
  rt::Cycles now = 0;
  std::size_t next_window = 0;
  rt::Cycles blackout_until = -1;  ///< end of the current transient outage
  bool halted = false;             ///< permanently failed

  auto in_blackout = [&](rt::Cycles t) {
    return std::any_of(windows.begin(), windows.end(), [t](const Window& w) {
      return t >= w.start && t < w.end;
    });
  };

  /// Conceals frame `f` of `st`: its final record, the fault tally and
  /// the probe.  A relay's head record stands, marked lost in place
  /// (the encoder reference lives with the head, which has moved on: a
  /// documented approximation of a mid-chain loss).  A frame caught in
  /// service had its record lost by the caller; others are dropped.
  auto conceal = [&](StreamState& st, int f, obs::ConcealReason why,
                     rt::Cycles cycles = 0,
                     obs::EventKind kind = obs::EventKind::kConceal) {
    if (st.relay()) {
      st.records[f].lost = true;
      st.records[f].concealed = true;
    } else if (why != obs::ConcealReason::kSuspendedOutage) {
      st.records[f] = st.session->drop(f);
    }
    if (why == obs::ConcealReason::kQuarantineDrop) {
      ++st.res->faults.quarantine_drops;
    } else {
      ++st.res->faults.failure_drops;
    }
    probe.on_conceal(now, st.spec->mode, kind, st.spec->id, f, cycles, why);
  };

  /// Selects the tables frame `arrival` is paced over: its budget
  /// epoch (renegotiations), capped by any policer-forced ladder rung.
  /// Also refreshes the policer's cut threshold — the committed worst
  /// case enforce_budget + migration surcharge.
  auto resolve_system = [&](StreamState& st, rt::Cycles arrival) {
    while (st.epoch_idx + 1 < st.epochs->size() &&
           (*st.epochs)[st.epoch_idx + 1].from_time <= arrival) {
      probe.on_epoch_switch(now, st.spec->id,
                            (*st.epochs)[st.epoch_idx].table_budget,
                            (*st.epochs)[st.epoch_idx + 1].table_budget);
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
    StreamState& st = stream_of(job);
    const int sid = st.spec->id;
    probe.on_queue_depth(now, ready.size());
    ActiveJob a;
    a.job = job;
    auto it = suspended.find({job.stream, job.frame});
    if (it != suspended.end()) {
      // Resuming a preempted frame: the switch-in half of its
      // preemption charge.
      a = it->second;
      suspended.erase(it);
      now += ctx;
      probe.on_resume(now, sid, job.frame, a.remaining, ctx);
    } else if (st.relay()) {
      // The record is final; just serve the remaining demand.
      --st.queued;
      const auto e = std::lower_bound(
          st.handoff_in->begin(), st.handoff_in->end(), job.frame,
          [](const HandoffEntry& h, int f) { return h.frame < f; });
      a.rec = e->rec;
      a.remaining = a.tail_demand = e->demand;
      probe.on_relay_dispatch(now, sid, job.frame, job.deadline);
    } else {
      --st.queued;
      resolve_system(st, job.arrival);
      // Elapsed time is measured from service start (t0 = 0): the
      // session's tables are paced over the reserved budget, and the
      // queueing delay lives in the latency slack K*P - B instead.
      a.rec = st.session->encode(job.frame, 0);
      a.rec.start_lag = now - job.arrival;
      a.faults = st.plan->at(job.frame);
      rt::Cycles demand = a.rec.encode_cycles;
      if (police_overruns && a.faults.overrun) {
        // Injected WCET overrun: the frame demands `factor` times its
        // honest cost.  The policer cuts it off at the stream's
        // committed worst case — co-resident streams never pay.  The
        // product is clamped while still a double: past the int64
        // range llround has no answer, and the overrun would slip by.
        a.rec.overrun = true;
        ++st.res->faults.overruns_injected;
        const double inflated =
            std::min(static_cast<double>(demand) * ospec.factor,
                     static_cast<double>(rt::kNoDeadline));
        demand = std::max(demand,
                          static_cast<rt::Cycles>(std::llround(inflated)));
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
      probe.on_dispatch(now, sid, job.frame, job.deadline, a.rec.start_lag);
      if (a.rec.overrun) {
        probe.on_fault_inject(now, sid, job.frame, demand, a.aborted);
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
            now + kQuarantinePeriods * st.period;
        st.pending_qmin = true;
        ++st.res->faults.quarantines;
        probe.on_quarantine(now, st.spec->id, st.quarantined_until);
        // Already-queued frames of the offender are dropped too.
        for (auto it = ready.begin(); it != ready.end();) {
          if (&stream_of(*it) == &st) {
            conceal(st, it->frame, obs::ConcealReason::kQuarantineDrop);
            --st.queued;
            it = ready.erase(it);
          } else {
            ++it;
          }
        }
        probe.on_queue_depth(now, ready.size());
        break;
      }
    }
  };

  /// The running frame's service is done.  A tail relay finishes a
  /// handed-off frame (the head encoded it and took its phases); a
  /// split head hands a delivered frame to its tail; every other
  /// frame is delivered, or concealed after an abort or a loss.
  auto complete = [&] {
    const ActiveJob& a = *running;
    StreamState& st = stream_of(a.job);
    pipe::FrameRecord rec = a.rec;
    auto outcome = obs::CompleteOutcome::kDelivered;
    if (!st.relay()) {  // a relay's record is the head's, already final
      if (a.aborted) {
        rec = st.session->lose(rec);
        ++st.res->faults.aborted_frames;
        punish_overrun(st);
        outcome = obs::CompleteOutcome::kAborted;
      } else if (inject_loss && a.faults.lost) {
        rec.lost = true;
        rec = st.session->lose(rec);
        ++st.res->faults.lost_frames;
        outcome = obs::CompleteOutcome::kLost;
      } else {
        rec = st.session->deliver(rec);
        if (rec.concealed) outcome = obs::CompleteOutcome::kLost;
      }
    }
    // A split head's delivered frame crosses to the tail piece, which
    // finishes the demand and does the display accounting.
    if (st.split_head > 0 && !rec.concealed) {
      probe.on_handoff(now, st.spec->id, a.job.frame, rec.encode_cycles);
      st.handoff_out->push_back(HandoffEntry{
          a.job.frame, a.job.arrival,
          std::max(a.job.arrival + st.split_head, now),
          a.job.arrival + st.latency, a.tail_demand, rec});
    } else {
      if (!rec.concealed && now > a.job.deadline) {
        ++st.res->display_misses;
        probe.on_miss(now, st.spec->mode, st.spec->id, a.job.frame,
                      now - a.job.deadline);
      } else if (!rec.concealed && st.res->first_ontime < 0) {
        st.res->first_ontime = now;
      }
      probe.on_complete(now, st.spec->mode, st.spec->id, a.job.frame,
                        now - a.job.arrival, rec.encode_cycles, outcome);
    }
    // Only the locally-served cycles are busy time: a relay serves the
    // tail share, a head everything else (a concealed split-head
    // frame's tail share was never served anywhere).
    if (st.relay()) {
      probe.on_busy(now, a.tail_demand);
    } else {
      probe.on_phases(now, rec.phase_cycles);
      probe.on_busy(now, rec.encode_cycles - a.tail_demand);
      st.records[a.job.frame] = rec;
    }
    running.reset();
  };

  /// Conceals a frame an outage caught in service, charging the cycles
  /// already burned.  The trace tells the running frame (whose open
  /// service segment this ends) from suspended ones (already closed by
  /// their preemption event).
  auto conceal_in_service = [&](const ActiveJob& a, bool was_running) {
    StreamState& st = stream_of(a.job);
    // Cycles actually consumed on this processor (a split head never
    // held its tail share; a relay holds nothing but it).
    rt::Cycles served = a.tail_demand - a.remaining;
    if (!st.relay()) {
      pipe::FrameRecord rec = a.rec;
      rec.encode_cycles -= a.remaining + a.tail_demand;
      st.records[a.job.frame] = st.session->lose(rec);
      served = st.records[a.job.frame].encode_cycles;
    }
    conceal(st, a.job.frame, obs::ConcealReason::kSuspendedOutage, served,
            was_running ? obs::EventKind::kConcealService
                        : obs::EventKind::kConceal);
    probe.on_busy(now, served);
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
        policy.preemption_point(running->dispatched_at, now);
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
      probe.on_proc_repair(now);
    }
    while (next_window < windows.size() &&
           now >= windows[next_window].start) {
      const Window& w = windows[next_window++];
      probe.on_proc_fail(now, w.end, w.end == kNever);
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
        conceal(stream_of(job), job.frame,
                obs::ConcealReason::kQueuedOutage);
        --stream_of(job).queued;
      }
      ready.clear();
      probe.on_queue_depth(now, 0);
      if (w.end == kNever) {
        halted = true;
      } else {
        blackout_until = std::max(blackout_until, w.end);
      }
    }

    // Camera frames due by now enter the input buffers (or are
    // dropped when full, quarantined, or lost to an outage).
    while (!arrivals.empty() && arrivals.top().first <= now) {
      const auto [at, index] = arrivals.top();
      arrivals.pop();
      StreamState& st = streams[static_cast<std::size_t>(index)];
      FrameJob job{0, index, 0, at};
      if (st.relay()) {
        // A handed-off tail job becomes ready: no camera-buffer or
        // quarantine logic (the head already applied both); only an
        // outage on *this* processor can still lose the frame.
        const HandoffEntry& e = (*st.handoff_in)[st.next_handoff++];
        if (st.next_handoff < st.handoff_in->size()) {
          arrivals.emplace((*st.handoff_in)[st.next_handoff].release, index);
        }
        job = FrameJob{e.deadline, index, e.frame, e.arrival};
      } else {
        job.frame = st.next_arrival++;
        if (st.next_arrival < st.end_frame) {
          arrivals.emplace(at + st.period, index);
        }
        // A C=D head piece runs under its zero-slack head deadline
        // arrival + C1 (what the admission test certified), not the
        // display deadline — the tail's slack lives downstream.
        job.deadline = at + (st.split_head > 0 ? st.split_head : st.latency);
      }
      if (in_blackout(at)) {
        // The processor is down: nobody services this frame.
        conceal(st, job.frame, obs::ConcealReason::kArrivalOutage);
        continue;
      }
      if (!st.relay() && st.quarantined_until >= 0) {
        if (at < st.quarantined_until) {
          conceal(st, job.frame, obs::ConcealReason::kQuarantineDrop);
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
      if (!st.relay() && st.queued >= st.spec->buffer_capacity) {
        // Input buffer full: the camera drops the frame.
        st.records[job.frame] = st.session->skip(job.frame);
        probe.on_camera_skip();
        continue;
      }
      ++st.queued;
      ready.insert(job);
      probe.on_enqueue(now, ready.size());
    }

    const bool in_outage = halted || blackout_until >= 0;

    // Preemption due now: suspend the runner (switch-out charge); the
    // displacing job is dispatched on the next pass.
    if (preemption_at() <= now) {
      ActiveJob a = *running;
      running.reset();
      suspended.emplace(std::make_pair(a.job.stream, a.job.frame), a);
      ready.insert(a.job);
      probe.on_preempt(now, stream_of(a.job).spec->id, a.job.frame,
                       a.remaining, ready.size(), ctx);
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
    const rt::Cycles t_arr = arrivals.empty() ? kNever : arrivals.top().first;
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
}

}  // namespace qosctrl::farm
