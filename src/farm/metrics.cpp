#include "farm/metrics.h"

#include <iomanip>
#include <sstream>
#include <string_view>

#include "encoder/body.h"
#include "obs/buildinfo.h"
#include "util/json.h"

namespace qosctrl::farm {
namespace {

const char* mode_name(pipe::ControlMode mode) {
  switch (mode) {
    case pipe::ControlMode::kControlled:
      return "controlled";
    case pipe::ControlMode::kConstantQuality:
      return "constant";
    case pipe::ControlMode::kFeedback:
      return "feedback";
  }
  return "?";
}

/// The budget a stream ended on: its last active epoch's, or the
/// admission budget when it never renegotiated.
rt::Cycles final_budget(const StreamOutcome& so) {
  const std::vector<BudgetEpoch>& epochs = active_epochs(so);
  return epochs.empty() ? so.placement.table_budget
                        : epochs.back().table_budget;
}

/// Appends ",<value>" for each value.
template <class... Ts>
void csv_fields(util::JsonWriter& w, const Ts&... values) {
  ((w.raw(','), util::csv_cell(w, values)), ...);
}

/// The stream table's request columns, one `column(name, value)` call
/// per column in order: the offered stream and the admission verdict.
/// The JSON and the CSV write every stream from these and
/// outcome_columns, by the value's type.
template <class Column>
void request_columns(const StreamOutcome& so, Column&& column) {
  column("id", so.spec.id);
  column("mode", mode_name(so.spec.mode));
  column("width", so.spec.width);
  column("height", so.spec.height);
  column("buffer_capacity", so.spec.buffer_capacity);
  column("frame_period", period_of(so.spec));
  column("join_time", so.spec.join_time);
  column("num_frames", so.spec.num_frames);
  column("admitted", so.placement.admitted);
}

/// The stream table's outcome columns, in order.  The JSON writes them
/// for admitted streams only; the CSV writes a rejected stream's from
/// a stream that never ran (processor -1, every other outcome 0).
template <class Column>
void outcome_columns(const StreamOutcome& so, Column&& column) {
  const Placement& pl = so.placement;
  const pipe::PipelineResult& res = so.result;
  column("processor", pl.processor);
  column("table_budget", pl.table_budget);
  column("committed_cost", pl.committed_cost);
  column("migrated", pl.migrated);
  column("degraded", pl.degraded);
  column("split", pl.split);
  column("tail_processor", pl.tail_processor);
  column("via_renegotiation", pl.via_renegotiation);
  column("renegotiated", so.renegotiated);
  column("restored", so.restored);
  column("final_budget", final_budget(so));
  column("initial_quality", pl.initial_quality);
  column("skips", res.total_skips);
  column("concealed", res.total_concealed);
  column("display_misses", so.display_misses);
  column("internal_misses", res.total_deadline_misses);
  column("max_start_lag", so.max_start_lag);
  column("mean_start_lag", so.mean_start_lag);
  column("start_lag_p95", so.start_lag_p95);
  for (const auto& [name, tally] : kFaultTallies) {
    column(name, so.faults.*tally);
  }
  column("quarantined", so.faults.quarantines > 0);
  column("failovers", so.failover.size());
  column("mean_psnr", res.mean_psnr);
  column("psnr_p5", res.psnr_stats.p5);
  column("psnr_min", res.psnr_stats.min);
  column("mean_ssim", res.mean_ssim);
  column("ssim_p5", res.ssim_stats.p5);
  column("ssim_min", res.ssim_stats.min);
  column("mean_quality", res.mean_quality);
  column("kbps", res.achieved_bps / 1e3);
}

}  // namespace

std::string summarize(const FarmResult& r) {
  std::ostringstream os;
  // Provenance first.  fault_seed 0 means the fault draws were
  // derived from the farm seed.
  os << obs::version_line("qosfarm") << " seed=" << r.farm_seed
     << " fault_seed=" << r.fault_spec.seed << "\n";
  os << "policy=" << sched::policy_name(r.sched.policy.kind);
  if (r.sched.policy.kind == sched::PolicyKind::kQuantumEdf) {
    os << " quantum=" << r.sched.policy.quantum;
  }
  os << " ctx_switch=" << r.sched.policy.context_switch_cost
     << " renegotiation=" << (r.sched.renegotiate ? "on" : "off")
     << " restore=" << (r.sched.restore ? "on" : "off")
     << " split=" << (r.sched.split ? "on" : "off")
     << " preemptions=" << r.total_preemptions
     << " overhead_Mcycles="
     << static_cast<double>(r.total_overhead_cycles) / 1e6 << "\n"
     << "streams=" << r.total_streams << " admitted=" << r.admitted
     << " rejected=" << r.rejected << " (rate=" << std::fixed
     << std::setprecision(2) << r.rejection_rate << ")"
     << " migrated=" << r.migrated << " degraded=" << r.degraded
     << " split=" << r.split_streams
     << " via_renegotiation=" << r.admitted_via_renegotiation
     << " renegotiated=" << r.renegotiated_streams
     << " restored=" << r.restored_streams << "\n"
     << "frames=" << r.total_frames << " encoded=" << r.encoded_frames
     << " skips=" << r.total_skips << " concealed=" << r.total_concealed
     << " display_misses=" << r.total_display_misses
     << " internal_misses=" << r.total_internal_misses << std::setprecision(3)
     << " mean_psnr=" << r.fleet_mean_psnr
     << " mean_ssim=" << r.fleet_mean_ssim
     << " mean_quality=" << r.fleet_mean_quality << "\n";
  if (r.fault_spec.any()) {
    const StreamFaultStats& ft = r.faults_total;
    os << "faults: overrun_p=" << r.fault_spec.overrun.probability
       << " factor=" << r.fault_spec.overrun.factor << " policy="
       << overrun_policy_name(r.fault_spec.overrun.policy)
       << " loss_p=" << r.fault_spec.loss.probability
       << " failures=" << r.fault_spec.failures.size() << "\n"
       << "fault totals: overruns=" << ft.overruns_injected
       << " policed=" << ft.overruns_policed
       << " aborted=" << ft.aborted_frames
       << " downgrades=" << ft.forced_downgrades
       << " quarantines=" << ft.quarantines
       << " quarantine_drops=" << ft.quarantine_drops
       << " lost=" << ft.lost_frames
       << " failure_drops=" << ft.failure_drops
       << " quarantined_streams=" << r.quarantined_streams
       << " failover_readmissions=" << r.failover_readmissions
       << " failover_drops=" << r.failover_drops << "\n";
  }
  for (std::size_t k = 0; k < r.failures.size(); ++k) {
    const FailureOutcome& fo = r.failures[k];
    os << "failure " << k << ": proc=" << fo.event.processor
       << " at_Mcycles=" << static_cast<double>(fo.event.time) / 1e6
       << (fo.event.permanent() ? " permanent" : " transient");
    if (!fo.event.permanent()) {
      os << " repair_Mcycles=" << static_cast<double>(fo.event.repair) / 1e6;
    }
    os << " displaced=" << fo.displaced << " readmitted=" << fo.readmitted
       << " dropped=" << fo.dropped << " recovered=" << fo.recovered;
    if (fo.first_recovery >= 0) {
      os << " first_recovery_Mcycles="
         << static_cast<double>(fo.first_recovery) / 1e6
         << " full_recovery_Mcycles="
         << static_cast<double>(fo.full_recovery) / 1e6;
    }
    os << "\n";
  }
  os << "quality histogram:";
  for (std::size_t q = 0; q < r.quality_histogram.size(); ++q) {
    os << " q" << q << "=" << r.quality_histogram[q];
  }
  os << "\n";
  for (std::size_t p = 0; p < r.processors.size(); ++p) {
    const ProcessorOutcome& po = r.processors[p];
    os << "proc " << p << ": streams=" << po.streams_hosted
       << " frames=" << po.frames_encoded << " busy_Mcycles="
       << static_cast<double>(po.busy_cycles) / 1e6
       << " util=" << po.utilization()
       << " peak_committed=" << po.peak_committed_utilization
       << " preemptions=" << po.preemptions;
    if (po.failed) {
      os << " FAILED at_Mcycles=" << static_cast<double>(po.failed_at) / 1e6;
    }
    if (po.fault_conceals > 0) os << " fault_conceals=" << po.fault_conceals;
    os << "\n";
  }
  // Per-shard lines only when the control plane is actually sharded:
  // the single-shard summary stays byte-stable.
  if (r.shards > 1) {
    os << "shards=" << r.shards << " join_batches=" << r.join_batches
       << " max_join_batch=" << r.max_join_batch
       << " rebalance_migrations=" << r.rebalance_migrations << "\n";
    for (std::size_t s = 0; s < r.shard_outcomes.size(); ++s) {
      const ShardOutcome& sh = r.shard_outcomes[s];
      os << "shard " << s << ": procs=[" << sh.first_processor << ","
         << sh.first_processor + sh.num_processors << ")"
         << " admitted=" << sh.admitted
         << " probe_admits=" << sh.probe_admits
         << " rejected=" << sh.rejected
         << " migrations_in=" << sh.migrations_in
         << " migrations_out=" << sh.migrations_out
         << " demand_tests=" << sh.demand_tests
         << " peak_committed=" << sh.peak_committed_utilization << "\n";
    }
  }
  for (const StreamOutcome& so : r.streams) {
    os << "stream " << so.spec.id << " [" << mode_name(so.spec.mode) << " "
       << so.spec.width << "x" << so.spec.height << " K="
       << so.spec.buffer_capacity << "]: ";
    if (!so.placement.admitted) {
      os << "REJECTED (" << so.placement.reason << ")\n";
      continue;
    }
    os << "proc=" << so.placement.processor
       << " budget_Mcycles="
       << static_cast<double>(so.placement.table_budget) / 1e6
       << (so.placement.migrated ? " migrated" : "")
       << (so.placement.degraded ? " degraded" : "")
       << (so.placement.via_renegotiation ? " via_renegotiation" : "");
    if (so.placement.split) {
      os << " split tail_proc=" << so.placement.tail_processor
         << " head_Mcycles="
         << static_cast<double>(so.placement.head_cost) / 1e6;
    }
    if (so.renegotiated || so.restored) {
      // Label by where the budget ended up, not by which events ever
      // happened: a stream shrunk again after a restore is reported
      // as renegotiated.
      const std::vector<BudgetEpoch>& epochs = active_epochs(so);
      const bool ended_shrunk =
          epochs.back().table_budget < so.placement.table_budget;
      os << (ended_shrunk ? " renegotiated->Mcycles="
                          : " restored->Mcycles=")
         << static_cast<double>(epochs.back().table_budget) / 1e6;
    }
    os << " q_initial=" << so.placement.initial_quality
       << " frames=" << so.result.frames.size()
       << " skips=" << so.result.total_skips
       << " concealed=" << so.result.total_concealed
       << " display_misses=" << so.display_misses
       << " internal_misses=" << so.result.total_deadline_misses
       << " mean_psnr=" << so.result.mean_psnr
       << " psnr_p5=" << so.result.psnr_stats.p5
       << " psnr_min=" << so.result.psnr_stats.min
       << " mean_ssim=" << so.result.mean_ssim
       << " mean_quality=" << so.result.mean_quality;
    if (so.faults.overruns_injected > 0 || so.faults.lost_frames > 0 ||
        so.faults.failure_drops > 0 || so.faults.quarantines > 0) {
      os << " overruns=" << so.faults.overruns_injected << "/policed="
         << so.faults.overruns_policed
         << " downgrades=" << so.faults.forced_downgrades
         << " lost=" << so.faults.lost_frames
         << " failure_drops=" << so.faults.failure_drops;
      if (so.faults.quarantines > 0) os << " QUARANTINED";
    }
    if (!so.failover.empty()) {
      os << " failovers=" << so.failover.size() << " (->proc";
      for (const FailoverSegment& seg : so.failover) {
        os << ' ' << seg.placement.processor;
      }
      os << ")";
    }
    os << "\n";
  }
  os << r.metrics.summary();
  // Windowed series and SLO sections only when asked for, so the
  // default summary stays byte-stable.
  if (r.series.window > 0) {
    os << "timeseries: window=" << r.series.window
       << " last_window=" << r.series.last_window() << "\n"
       << r.series.summary();
  }
  if (!r.slo.objectives.empty()) os << obs::slo_summary(r.slo);
  os << "trace: events=" << r.trace.size()
     << " trace_dropped=" << r.trace_dropped;
  // Per-buffer overflow attribution (tracing only): which processor's
  // ring actually lost events.
  if (!r.trace_dropped_per_buffer.empty()) {
    os << " (";
    for (std::size_t b = 0; b < r.trace_dropped_per_buffer.size(); ++b) {
      const bool control = b + 1 == r.trace_dropped_per_buffer.size();
      os << (b ? " " : "")
         << (control ? std::string("control") : "cpu" + std::to_string(b))
         << '=' << r.trace_dropped_per_buffer[b];
    }
    os << ")";
  }
  os << "\n";
  return os.str();
}

std::string to_json(const FarmResult& r) {
  util::JsonWriter w;
  w.begin_object().key("build").begin_object().json(obs::build_json_fields());
  w.key("farm_seed").integer(static_cast<long long>(r.farm_seed));
  // 0 = the fault draws were derived from the farm seed.
  w.key("fault_seed").integer(static_cast<long long>(r.fault_spec.seed));
  w.end_object();

  w.key("fleet").begin_object();
  w.key("policy").string(sched::policy_name(r.sched.policy.kind));
  w.key("quantum").integer(r.sched.policy.quantum);
  w.key("context_switch_cost").integer(r.sched.policy.context_switch_cost);
  w.key("renegotiate").boolean(r.sched.renegotiate);
  w.key("restore").boolean(r.sched.restore);
  w.key("split").boolean(r.sched.split);
  w.key("preemptions").integer(r.total_preemptions);
  w.key("overhead_cycles").integer(r.total_overhead_cycles);
  w.key("total_streams").integer(r.total_streams);
  w.key("admitted").integer(r.admitted);
  w.key("rejected").integer(r.rejected);
  w.key("migrated").integer(r.migrated);
  w.key("degraded").integer(r.degraded);
  w.key("split_streams").integer(r.split_streams);
  w.key("admitted_via_renegotiation").integer(r.admitted_via_renegotiation);
  w.key("renegotiated_streams").integer(r.renegotiated_streams);
  w.key("restored_streams").integer(r.restored_streams);
  w.key("rejection_rate").number(r.rejection_rate);
  w.key("total_frames").integer(r.total_frames);
  w.key("encoded_frames").integer(r.encoded_frames);
  w.key("total_skips").integer(r.total_skips);
  w.key("display_misses").integer(r.total_display_misses);
  w.key("internal_misses").integer(r.total_internal_misses);
  w.key("mean_psnr").number(r.fleet_mean_psnr);
  w.key("mean_ssim").number(r.fleet_mean_ssim);
  w.key("total_concealed").integer(r.total_concealed);
  for (const auto& [name, tally] : kFaultTallies) {
    w.key(name).integer(r.faults_total.*tally);
  }
  w.key("quarantined_streams").integer(r.quarantined_streams);
  w.key("failover_readmissions").integer(r.failover_readmissions);
  w.key("failover_drops").integer(r.failover_drops);
  w.key("mean_quality").number(r.fleet_mean_quality);
  w.key("quality_histogram").begin_array();
  for (const long long n : r.quality_histogram) w.integer(n);
  w.end_array().end_object();

  w.key("faults").begin_object();
  w.key("overrun_probability").number(r.fault_spec.overrun.probability);
  w.key("overrun_factor").number(r.fault_spec.overrun.factor);
  w.key("overrun_policy")
      .string(overrun_policy_name(r.fault_spec.overrun.policy));
  w.key("loss_probability").number(r.fault_spec.loss.probability);
  w.end_object();

  w.key("failures").begin_array();
  for (const FailureOutcome& fo : r.failures) {
    w.begin_object();
    w.key("processor").integer(fo.event.processor);
    w.key("time").integer(fo.event.time);
    w.key("permanent").boolean(fo.event.permanent());
    w.key("repair").integer(fo.event.repair);
    w.key("displaced").integer(fo.displaced);
    w.key("readmitted").integer(fo.readmitted);
    w.key("dropped").integer(fo.dropped);
    w.key("recovered").integer(fo.recovered);
    w.key("first_recovery").integer(fo.first_recovery);
    w.key("full_recovery").integer(fo.full_recovery);
    w.end_object();
  }
  w.end_array();

  w.key("processors").begin_array();
  for (std::size_t p = 0; p < r.processors.size(); ++p) {
    const ProcessorOutcome& po = r.processors[p];
    w.begin_object();
    w.key("processor").integer(static_cast<long long>(p));
    w.key("streams").integer(po.streams_hosted);
    w.key("frames").integer(po.frames_encoded);
    w.key("busy_cycles").integer(po.busy_cycles);
    w.key("span_cycles").integer(po.span_cycles);
    w.key("utilization").number(po.utilization());
    w.key("preemptions").integer(po.preemptions);
    w.key("overhead_cycles").integer(po.overhead_cycles);
    w.key("failed").boolean(po.failed);
    w.key("failed_at").integer(po.failed_at);
    w.key("fault_conceals").integer(po.fault_conceals);
    w.key("peak_committed_utilization").number(po.peak_committed_utilization);
    w.end_object();
  }
  w.end_array();

  w.key("streams").begin_array();
  const auto member = [&w](std::string_view name, const auto& value) {
    w.key(name).value(value);
  };
  for (const StreamOutcome& so : r.streams) {
    w.begin_object();
    request_columns(so, member);
    if (!so.placement.admitted) {
      w.key("reason").string(so.placement.reason).end_object();
      continue;
    }
    outcome_columns(so, member);
    w.key("phase_cycles").begin_object();
    for (int ph = 0; ph < enc::kNumEncodePhases; ++ph) {
      w.key(enc::encode_phase_name(static_cast<enc::EncodePhase>(ph)))
          .integer(so.result.phase_cycles[static_cast<std::size_t>(ph)]);
    }
    w.end_object().end_object();
  }
  w.end_array();

  // Shard block only when sharded, so single-shard JSON is unchanged.
  if (r.shards > 1) {
    w.key("shards").begin_object();
    w.key("count").integer(r.shards);
    w.key("join_batches").integer(r.join_batches);
    w.key("max_join_batch").integer(r.max_join_batch);
    w.key("rebalance_migrations").integer(r.rebalance_migrations);
    w.key("per_shard").begin_array();
    for (std::size_t s = 0; s < r.shard_outcomes.size(); ++s) {
      const ShardOutcome& sh = r.shard_outcomes[s];
      w.begin_object();
      w.key("shard").integer(static_cast<long long>(s));
      w.key("first_processor").integer(sh.first_processor);
      w.key("num_processors").integer(sh.num_processors);
      w.key("admitted").integer(sh.admitted);
      w.key("probe_admits").integer(sh.probe_admits);
      w.key("rejected").integer(sh.rejected);
      w.key("migrations_in").integer(sh.migrations_in);
      w.key("migrations_out").integer(sh.migrations_out);
      w.key("demand_tests").integer(sh.demand_tests);
      w.key("peak_committed_utilization")
          .number(sh.peak_committed_utilization);
      w.end_object();
    }
    w.end_array().end_object();
  }
  w.key("metrics").json(r.metrics.to_json());
  // Series / SLO blocks only when the features ran, so default JSON is
  // unchanged byte for byte.
  if (r.series.window > 0) w.key("timeseries").json(r.series.to_json());
  if (!r.slo.objectives.empty()) {
    w.key("slo").json(obs::slo_to_json(r.slo));
  }
  w.key("trace_events").integer(static_cast<long long>(r.trace.size()));
  w.key("trace_dropped").integer(r.trace_dropped);
  if (!r.trace_dropped_per_buffer.empty()) {
    w.key("trace_dropped_per_buffer").begin_array();
    for (const long long n : r.trace_dropped_per_buffer) w.integer(n);
    w.end_array();
  }
  w.end_object();
  return w.take();
}

std::string to_csv(const FarmResult& r) {
  util::JsonWriter w;
  const StreamOutcome never_ran;
  util::csv_table(w, never_ran, r.streams,
                  [&](const StreamOutcome& so, auto&& column) {
                    request_columns(so, column);
                    outcome_columns(so.placement.admitted ? so : never_ran,
                                    column);
                  });
  // Metrics table, blank-line separated from the stream table so the
  // file stays trivially splittable.
  w.raw("\nmetric,kind,count,sum,min,max,p50,p95,p99\n");
  for (const auto& [name, h] : r.metrics.histograms()) {
    w.raw(name).raw(",histogram");
    csv_fields(w, h.count(), h.sum(), h.min(), h.max(), h.percentile(0.50),
               h.percentile(0.95), h.percentile(0.99));
    w.raw('\n');
  }
  for (const auto& [name, v] : r.metrics.counters()) {
    w.raw(name).raw(",counter");
    csv_fields(w, v, v);
    w.raw(",0,0,0,0,0\n");
  }
  // SLO verdict table, again blank-line separated, only when
  // objectives were configured (a spec has no commas or whitespace).
  if (!r.slo.objectives.empty()) {
    w.raw("\nslo,points,violations,worst_window,worst_value,"
          "budget_remaining,alerts,met\n");
    for (const obs::SloOutcome& o : r.slo.objectives) {
      w.raw(o.spec.text);
      csv_fields(w, o.points, o.violations, o.worst_window, o.worst_value,
                 o.budget_remaining, o.alerts.size(), o.met);
      w.raw('\n');
    }
  }
  return w.take();
}

}  // namespace qosctrl::farm
