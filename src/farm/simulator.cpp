#include "farm/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <tuple>
#include <utility>

#include "farm/probe.h"
#include "farm/run_queue.h"
#include "farm/shard.h"
#include "util/check.h"
#include "util/parallel.h"

namespace qosctrl::farm {
namespace {

StreamFaultStats& operator+=(StreamFaultStats& a, const StreamFaultStats& b) {
  for (const auto& [name, tally] : kFaultTallies) a.*tally += b.*tally;
  return a;
}

/// Library callers get the CLI's input checks: no wrapped window, no
/// NaN that switches a fault class off, no no-op policer, no overhead
/// cost or repair instant that overflows, no trace ring larger than
/// kMaxTraceBufferCapacity.
void validate(const FarmScenario& scenario, const FarmConfig& config) {
  QC_EXPECT(config.num_processors >= 1, "farm needs >= 1 processor");
  QC_EXPECT(config.admission.migration_cost >= 0 &&
                config.admission.migration_cost <=
                    platform::kMaxOverheadCycles,
            "migration cost must be in [0, platform::kMaxOverheadCycles]");
  QC_EXPECT(scenario.sched.policy.context_switch_cost <=
                platform::kMaxOverheadCycles,
            "context switch cost exceeds platform::kMaxOverheadCycles");
  QC_EXPECT(config.control_epoch >= 0,
            "control epoch must be non-negative");
  QC_EXPECT(config.ts_window >= 0,
            "time-series window must be non-negative");
  // Without a series a windowed objective scores no points and reads
  // met; recovery_latency reads the failure outcomes instead.
  for (const obs::SloSpec& spec : config.slos) {
    QC_EXPECT(config.ts_window > 0 ||
                  spec.metric == obs::SloMetric::kRecoveryLatency,
              "a windowed SLO needs a time-series window");
  }
  QC_EXPECT(std::isfinite(config.frame_rate) && config.frame_rate > 0,
            "frame rate must be finite and positive");
  QC_EXPECT(!config.trace || (config.trace_buffer_capacity >= 1 &&
                              config.trace_buffer_capacity <=
                                  kMaxTraceBufferCapacity),
            "trace buffer capacity must be in [1, kMaxTraceBufferCapacity]");
  const FaultSpec& faults = scenario.faults;
  QC_EXPECT(std::isfinite(faults.overrun.factor) &&
                faults.overrun.factor > 1.0,
            "overrun factor must be finite and > 1");
  QC_EXPECT(faults.overrun.probability >= 0.0 &&
                faults.overrun.probability <= 1.0,
            "overrun probability must be in [0, 1]");
  QC_EXPECT(faults.loss.probability >= 0.0 && faults.loss.probability <= 1.0,
            "loss probability must be in [0, 1]");
  QC_EXPECT(faults.overrun.quarantine_strikes >= 1,
            "quarantine needs >= 1 strike");
  for (const FailureEvent& ev : faults.failures) {
    QC_EXPECT(ev.processor >= 0 && ev.processor < config.num_processors,
              "failure event targets a processor outside the farm");
    QC_EXPECT(ev.time >= 0 && ev.repair >= 0,
              "failure event times must be non-negative");
    QC_EXPECT(ev.repair <= std::numeric_limits<rt::Cycles>::max() - ev.time,
              "failure repair instant overflows");
  }
}

/// The streams in control-plane join order: (join time, id).
std::vector<StreamOutcome*> join_order(std::vector<StreamOutcome>& streams) {
  std::vector<StreamOutcome*> order;
  order.reserve(streams.size());
  for (StreamOutcome& so : streams) order.push_back(&so);
  std::sort(order.begin(), order.end(),
            [](const StreamOutcome* a, const StreamOutcome* b) {
              return std::tie(a->spec.join_time, a->spec.id) <
                     std::tie(b->spec.join_time, b->spec.id);
            });
  return order;
}

/// The control plane: plays the join/leave/failure queue in time order.
/// At equal instants leaves go first, then permanent failures (so no
/// newcomer lands on a dead processor), then joins in stream-id order.
/// Returns the run's skeleton: placements, budget epochs, failover
/// segments, failure and processor outcomes, and the control tallies.
FarmResult run_control_plane(const FarmScenario& scenario,
                             const FarmConfig& config,
                             ShardedControlPlane& plane, Probe& probe) {
  FarmResult result;
  result.sched = scenario.sched;
  result.fault_spec = scenario.faults;
  result.farm_seed = config.seed;
  result.streams.reserve(scenario.streams.size());
  for (const StreamSpec& spec : scenario.streams) {
    result.streams.emplace_back().spec = spec;
  }
  result.processors.resize(static_cast<std::size_t>(config.num_processors));
  for (const FailureEvent& ev : scenario.faults.failures) {
    result.failures.emplace_back().event = ev;
  }

  std::map<int, StreamOutcome*> by_id;
  for (StreamOutcome& so : result.streams) by_id[so.spec.id] = &so;
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
      probe.on_renegotiate(r);
      (r.grow ? victim->restored : victim->renegotiated) = true;
      std::vector<BudgetEpoch>& epochs = victim->failover.empty()
                                             ? victim->epochs
                                             : victim->failover.back().epochs;
      epochs.push_back(BudgetEpoch{r.effective_time, r.table_budget,
                                   r.committed_cost, std::move(r.system)});
    }
  };

  /// Opens a failover segment of `so` (failure_index -1: a rebalancer
  /// migration) serving from `first_frame` under `pl`, whose first
  /// budget epoch starts at `epoch_from`.
  auto open_segment = [&](StreamOutcome* so, int failure_index,
                          rt::Cycles from, int first_frame,
                          const Placement& pl, rt::Cycles epoch_from) {
    so->failover.push_back(FailoverSegment{
        failure_index, from, first_frame, pl,
        {BudgetEpoch{epoch_from, pl.table_budget, pl.committed_cost,
                     pl.system}}});
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
      // First frame the survivors serve: the first arrival strictly
      // after the failure instant (an arrival at the instant itself is
      // concealed by the dying processor's blackout).
      StreamSpec resume;
      const int ff = resume_after(so->spec, ev.time, &resume);
      if (ff >= so->spec.num_frames) continue;  // nothing left to serve
      const Placement pl = plane.admit(resume);
      apply_renegotiations();
      if (!pl.admitted) {
        // No survivor can host it: the remaining frames stay with the
        // halted processor, which conceals every one of them.
        ++fo.dropped;
        ++result.failover_drops;
        probe.on_failover_drop(ev.time, id, ev.processor);
        continue;
      }
      ++fo.readmitted;
      ++result.failover_readmissions;
      probe.on_failover(ev.time, id, pl.processor);
      open_segment(so, static_cast<int>(k), ev.time, ff, pl,
                   resume.join_time);
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
    const int cap = 4 * plane.num_shards();
    int moved = 0;
    ShardMigration mg;
    while (moved < cap && plane.rebalance_step(now, &mg)) {
      ++moved;
      ++result.rebalance_migrations;
      StreamOutcome* so = by_id.at(mg.stream_id);
      // mg.from_time is the first arrival the new placement serves;
      // against the stream's original join it names the absolute frame
      // index even after repeated migrations.
      open_segment(so, -1, now,
                   static_cast<int>((mg.from_time - so->spec.join_time) /
                                    period_of(so->spec)),
                   mg.placement, mg.from_time);
      probe.on_rebalance(now, mg.stream_id, mg.placement.processor,
                         mg.to_shard);
      apply_renegotiations();
    }
  };

  // Joins, grouped into control batches: all joins in the same control
  // epoch window form one batch (every join is its own batch when no
  // epoch is configured).  Each join is still processed one at a time
  // in (time, id) order — batching sets the rebalance cadence and the
  // storm accounting, never the admission decisions.
  const std::vector<StreamOutcome*> order = join_order(result.streams);
  const rt::Cycles epoch = config.control_epoch;
  for (std::size_t b = 0; b < order.size();) {
    std::size_t e = b + 1;
    if (epoch > 0) {
      const rt::Cycles window = order[b]->spec.join_time / epoch;
      while (e < order.size() &&
             order[e]->spec.join_time / epoch == window) {
        ++e;
      }
    }
    for (std::size_t j = b; j < e; ++j) {
      StreamOutcome* so = order[j];
      drain_until(so->spec.join_time);
      so->placement = plane.admit(so->spec);
      apply_renegotiations();
      if (so->placement.admitted) {
        so->epochs.insert(
            so->epochs.begin(),
            BudgetEpoch{so->spec.join_time, so->placement.table_budget,
                        so->placement.committed_cost, so->placement.system});
        leaves.emplace(leave_time_of(so->spec), so->spec.id);
        probe.on_admit(so->spec.join_time, so->spec.id, so->placement,
                       plane.shard_of(so->placement.processor));
      } else {
        probe.on_reject(so->spec.join_time, so->spec.id);
      }
    }
    const rt::Cycles batch_end = order[e - 1]->spec.join_time;
    if (epoch > 0) {
      ++result.join_batches;
      result.max_join_batch =
          std::max(result.max_join_batch, static_cast<int>(e - b));
      probe.on_join_batch(batch_end, e - b);
    }
    run_rebalancer(batch_end);
    b = e;
  }
  // Departures and failures after the last join: drain to the end —
  // restore passes still grow long-lived incumbents, and a late
  // failure still displaces whoever remains.
  drain_until(kNever);
  return result;
}

/// One admitted stream's data-plane storage: the run queues write its
/// records and segment tallies, and a C=D segment's head passes frames
/// to its tail through the segment's handoff buffer.
struct StreamWork {
  std::vector<CertifiedRung> ladder;  ///< the policer's; empty: none
  std::vector<pipe::FrameRecord> records;
  std::vector<SegmentResult> segments;
  std::vector<std::vector<HandoffEntry>> handoffs;
};

/// The data plane's work: per-stream storage, per-processor outage
/// windows and segments, and the processors by C=D handoff level.
struct DataPlane {
  std::vector<StreamWork> streams;
  std::vector<std::vector<Window>> windows;
  std::vector<std::vector<Assignment>> assigned;
  std::vector<std::vector<int>> levels;
};

/// Lays the placements out as run-queue work, one segment per placement
/// queued in join order, and compiles the policer's ladders (here, as
/// TableCache is not thread-safe).  Heads carry the lower index, so one
/// ascending pass finds the handoff levels.
DataPlane assign(const FarmScenario& scenario, const FarmConfig& config,
                 ShardedControlPlane& plane, FarmResult& result) {
  const auto m = static_cast<std::size_t>(config.num_processors);
  DataPlane dp;
  dp.streams.resize(result.streams.size());
  dp.windows.resize(m);
  dp.assigned.resize(m);
  for (const FailureEvent& ev : scenario.faults.failures) {
    dp.windows[static_cast<std::size_t>(ev.processor)].push_back(
        Window{ev.time, ev.permanent() ? kNever : ev.time + ev.repair});
  }
  for (auto& ws : dp.windows) {
    std::sort(ws.begin(), ws.end(), [](const Window& a, const Window& b) {
      return std::tie(a.start, a.end) < std::tie(b.start, b.end);
    });
  }

  const bool need_ladders =
      scenario.faults.overrun.enabled() &&
      scenario.faults.overrun.policy != OverrunPolicy::kAbortConceal;
  std::vector<std::vector<int>> feeders(m);
  for (StreamOutcome* so : join_order(result.streams)) {
    if (!so->placement.admitted) continue;
    StreamWork& w = dp.streams[static_cast<std::size_t>(
        so - result.streams.data())];
    // Split placements get no ladder: their two pieces are priced as
    // one immutable commitment, so the policer's downgrade and
    // quarantine re-entry rungs would not match what was admitted.
    if (need_ladders && !so->placement.split &&
        so->spec.mode == pipe::ControlMode::kControlled) {
      w.ladder = plane.certified_ladder(
          macroblocks_of(so->spec), latency_of(so->spec), period_of(so->spec));
    }
    const std::size_t segments = 1 + so->failover.size();
    w.records.resize(static_cast<std::size_t>(so->spec.num_frames));
    w.segments.resize(segments);
    w.handoffs.resize(segments);
    for (std::size_t seg = 0; seg < segments; ++seg) {
      const Placement& pl =
          seg == 0 ? so->placement : so->failover[seg - 1].placement;
      Assignment asg;
      asg.spec = &so->spec;
      asg.epochs = seg == 0 ? &so->epochs : &so->failover[seg - 1].epochs;
      asg.first_frame = seg == 0 ? 0 : so->failover[seg - 1].first_frame;
      asg.end_frame = seg < so->failover.size()
                          ? so->failover[seg].first_frame
                          : so->spec.num_frames;
      asg.records = w.records.data();
      asg.res = &w.segments[seg];
      asg.ladder = w.ladder.empty() ? nullptr : &w.ladder;
      if (pl.split) {
        Assignment tail = asg;
        tail.handoff_in = &w.handoffs[seg];
        dp.assigned[static_cast<std::size_t>(pl.tail_processor)].push_back(
            tail);
        feeders[static_cast<std::size_t>(pl.tail_processor)].push_back(
            pl.processor);
        asg.split_head = pl.head_cost;
        asg.handoff_out = &w.handoffs[seg];
      }
      dp.assigned[static_cast<std::size_t>(pl.processor)].push_back(asg);
    }
  }

  std::vector<int> level(m, 0);
  for (std::size_t p = 0; p < m; ++p) {
    for (const int head : feeders[p]) {
      level[p] = std::max(level[p], level[static_cast<std::size_t>(head)] + 1);
    }
  }
  dp.levels.resize(
      static_cast<std::size_t>(*std::max_element(level.begin(), level.end())) +
      1);
  for (std::size_t p = 0; p < m; ++p) {
    dp.levels[static_cast<std::size_t>(level[p])].push_back(
        static_cast<int>(p));
  }
  return dp;
}

/// Runs the queues level by level on up to FarmConfig::workers threads.
void run_pool(const FarmScenario& scenario, const FarmConfig& config,
              const DataPlane& dp, Sinks& sinks) {
  for (const std::vector<int>& procs : dp.levels) {
    util::parallel_for(procs.size(), config.workers, [&](std::size_t s) {
      const auto p = static_cast<std::size_t>(procs[s]);
      run_processor(config, scenario.sched, scenario.faults, dp.windows[p],
                    dp.assigned[p], sinks.processor(procs[s]));
    });
  }
}

/// Stitches the segments into per-stream outcomes and the failures'
/// recovery latencies.
void stitch(const FarmConfig& config, DataPlane& dp, FarmResult* result) {
  for (std::size_t i = 0; i < result->streams.size(); ++i) {
    StreamOutcome& so = result->streams[i];
    if (!so.placement.admitted) continue;
    StreamWork& w = dp.streams[i];
    for (const SegmentResult& sr : w.segments) {
      so.display_misses += sr.display_misses;
      so.faults += sr.faults;
    }
    // Start lags of the dispatched frames, the ones with encoder bits.
    // The lags are integers, so their sum is exact in any order.
    std::vector<rt::Cycles> lags;
    double lag_sum = 0.0;
    for (const pipe::FrameRecord& fr : w.records) {
      if (fr.bits == 0) continue;
      lags.push_back(fr.start_lag);
      lag_sum += static_cast<double>(fr.start_lag);
    }
    if (!lags.empty()) {
      std::sort(lags.begin(), lags.end());
      so.max_start_lag = lags.back();
      so.mean_start_lag = lag_sum / static_cast<double>(lags.size());
      so.start_lag_p95 =
          lags[static_cast<std::size_t>(0.95 *
                                        static_cast<double>(lags.size() - 1))];
    }
    so.result = pipe::aggregate_records(
        std::move(w.records), so.placement.table_budget,
        frame_rate_of(so.spec, config.frame_rate));

    // Recovery: failure instant -> first on-time frame after it.
    for (std::size_t k = 0; k < so.failover.size(); ++k) {
      const SegmentResult& sr = w.segments[k + 1];
      const int failure = so.failover[k].failure_index;
      if (failure < 0 || sr.first_ontime < 0) continue;
      FailureOutcome& fo = result->failures[static_cast<std::size_t>(failure)];
      ++fo.recovered;
      const rt::Cycles latency = sr.first_ontime - fo.event.time;
      fo.first_recovery = fo.first_recovery < 0
                              ? latency
                              : std::min(fo.first_recovery, latency);
      fo.full_recovery = std::max(fo.full_recovery, latency);
    }
  }
}

/// Fleet aggregates, the control plane's counters and per-shard
/// outcomes, SLO verdicts, and the sink merge.
void finalize(const FarmConfig& config, const ShardedControlPlane& plane,
              Sinks& sinks, FarmResult* result) {
  FarmResult& r = *result;
  r.total_streams = static_cast<int>(r.streams.size());
  r.quality_histogram.assign(platform::figure5_quality_levels().size(), 0);
  for (std::size_t p = 0; p < r.processors.size(); ++p) {
    ProcessorOutcome& po = r.processors[p];
    sinks.processor(static_cast<int>(p)).write_tallies(&po);
    po.peak_committed_utilization =
        plane.peak_committed_utilization(static_cast<int>(p));
    r.total_preemptions += po.preemptions;
    r.total_overhead_cycles += po.overhead_cycles;
  }
  double psnr_sum = 0.0, ssim_sum = 0.0, quality_sum = 0.0;
  for (const StreamOutcome& so : r.streams) {
    r.renegotiated_streams += so.renegotiated ? 1 : 0;
    r.restored_streams += so.restored ? 1 : 0;
    if (!so.placement.admitted) {
      ++r.rejected;
      continue;
    }
    ++r.admitted;
    r.migrated += so.placement.migrated ? 1 : 0;
    r.degraded += so.placement.degraded ? 1 : 0;
    r.split_streams += so.placement.split ? 1 : 0;
    r.admitted_via_renegotiation += so.placement.via_renegotiation ? 1 : 0;
    r.total_frames += static_cast<long long>(so.result.frames.size());
    r.total_skips += so.result.total_skips;
    r.total_concealed += so.result.total_concealed;
    r.total_display_misses += so.display_misses;
    r.total_internal_misses += so.result.total_deadline_misses;
    r.faults_total += so.faults;
    if (so.faults.quarantines > 0) ++r.quarantined_streams;
    for (const pipe::FrameRecord& fr : so.result.frames) {
      psnr_sum += fr.psnr;
      ssim_sum += fr.ssim;
      if (!fr.encoded()) continue;
      ++r.encoded_frames;
      quality_sum += fr.mean_quality;
      const auto bucket = static_cast<std::size_t>(std::lround(std::clamp(
          fr.mean_quality, 0.0,
          static_cast<double>(r.quality_histogram.size() - 1))));
      ++r.quality_histogram[bucket];
    }
  }
  auto ratio = [](double num, long long den) {
    return den > 0 ? num / static_cast<double>(den) : 0.0;
  };
  r.rejection_rate = ratio(r.rejected, r.total_streams);
  r.fleet_mean_psnr = ratio(psnr_sum, r.total_frames);
  r.fleet_mean_ssim = ratio(ssim_sum, r.total_frames);
  r.fleet_mean_quality = ratio(quality_sum, r.encoded_frames);

  obs::Registry control;
  control.counter("admission_accepted") = r.admitted;
  control.counter("admission_rejected") = r.rejected;
  control.counter("admission_migrations") = r.migrated;
  control.counter("admission_renegotiations") = r.renegotiated_streams;
  control.counter("admission_restores") = r.restored_streams;
  control.counter("failover_readmissions") = r.failover_readmissions;
  control.counter("failover_drops") = r.failover_drops;
  const sched::EdfScanStats& scan = plane.scan_stats();
  control.counter("admission_demand_tests") = scan.demand_tests;
  control.counter("admission_busy_iterations") = scan.busy_iterations;
  control.counter("admission_qpa_points") = scan.qpa_points;
  control.counter("admission_splits") = plane.split_count();
  control.counter("join_batches") = r.join_batches;
  control.counter("rebalance_migrations") = r.rebalance_migrations;

  // Per-shard outcomes (the report layers render them only when the
  // plane is actually sharded, keeping single-shard output stable).
  r.shards = plane.num_shards();
  for (int s = 0; s < plane.num_shards(); ++s) {
    r.shard_outcomes.push_back(
        ShardOutcome{plane.shard_stats(s), plane.shard_base(s),
                     plane.shard_size(s),
                     plane.shard_peak_committed_utilization(s)});
  }

  // SLO verdicts over the merged series plus the per-failure recovery
  // latencies.  Burn-rate alerts land on the trace's control-plane row
  // (before the trace merge, so they sort in).
  sinks.merge_series(&r.series);
  if (!config.slos.empty()) {
    obs::SloInputs slo_inputs;
    slo_inputs.series = &r.series;
    for (const StreamOutcome& so : r.streams) {
      slo_inputs.reference_window =
          std::max(slo_inputs.reference_window, latency_of(so.spec));
    }
    for (const FailureOutcome& fo : r.failures) {
      if (fo.readmitted + fo.dropped == 0) continue;
      const bool recovered = fo.dropped == 0 && fo.recovered >= fo.readmitted;
      slo_inputs.recovery_latencies.push_back(recovered ? fo.full_recovery
                                                        : -1);
    }
    r.slo = obs::evaluate_slos(config.slos, slo_inputs);
    if (config.ts_window > 0) {
      for (std::size_t i = 0; i < r.slo.objectives.size(); ++i) {
        for (const obs::SloAlert& al : r.slo.objectives[i].alerts) {
          sinks.control().on_slo_alert((al.window + 1) * config.ts_window,
                                       al.window, i);
        }
      }
    }
  }
  sinks.merge(control, result);
}

}  // namespace

FarmResult run_farm(const FarmScenario& scenario, const FarmConfig& config) {
  validate(scenario, config);
  TableCache tables(platform::figure5_cost_table());
  ShardPlaneConfig shard_cfg;
  shard_cfg.shards = config.shards;
  shard_cfg.probe_shards = config.probe_shards;
  shard_cfg.rebalance_watermark = config.rebalance_watermark;
  ShardedControlPlane plane(config.num_processors, shard_cfg,
                            config.admission, &tables, scenario.sched);
  Sinks sinks(config);

  FarmResult result =
      run_control_plane(scenario, config, plane, sinks.control());
  DataPlane data = assign(scenario, config, plane, result);
  run_pool(scenario, config, data, sinks);
  stitch(config, data, &result);
  finalize(config, plane, sinks, &result);
  return result;
}

}  // namespace qosctrl::farm
