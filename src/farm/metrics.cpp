#include "farm/metrics.h"

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

// Every report table is one list of `column(name, value)` calls, in
// the JSON's order.  to_json writes each row as an object of these
// members, summarize as one "<label>: name=value ..." text row
// (util::text_row), and to_csv writes the stream table from them.

/// The seeds the run was played with, after the build provenance.
/// fault_seed 0 means the fault draws were derived from the farm seed.
constexpr auto seed_columns = [](const FarmResult& r, auto&& column) {
  column("farm_seed", r.farm_seed);
  column("fault_seed", r.fault_spec.seed);
};

/// The fleet object is these columns, then fault_total_columns, then
/// quality_columns; the summary gives each run its own row.
constexpr auto fleet_columns = [](const FarmResult& r, auto&& column) {
  column("policy", sched::policy_name(r.sched.policy.kind));
  column("quantum", r.sched.policy.quantum);
  column("context_switch_cost", r.sched.policy.context_switch_cost);
  column("renegotiate", r.sched.renegotiate);
  column("restore", r.sched.restore);
  column("split", r.sched.split);
  column("preemptions", r.total_preemptions);
  column("overhead_cycles", r.total_overhead_cycles);
  column("total_streams", r.total_streams);
  column("admitted", r.admitted);
  column("rejected", r.rejected);
  column("migrated", r.migrated);
  column("degraded", r.degraded);
  column("split_streams", r.split_streams);
  column("admitted_via_renegotiation", r.admitted_via_renegotiation);
  column("renegotiated_streams", r.renegotiated_streams);
  column("restored_streams", r.restored_streams);
  column("rejection_rate", r.rejection_rate);
  column("total_frames", r.total_frames);
  column("encoded_frames", r.encoded_frames);
  column("total_skips", r.total_skips);
  column("display_misses", r.total_display_misses);
  column("internal_misses", r.total_internal_misses);
  column("mean_psnr", r.fleet_mean_psnr);
  column("mean_ssim", r.fleet_mean_ssim);
  column("total_concealed", r.total_concealed);
};

constexpr auto fault_total_columns = [](const FarmResult& r,
                                        auto&& column) {
  for (const auto& [name, tally] : kFaultTallies) {
    column(name, r.faults_total.*tally);
  }
  column("quarantined_streams", r.quarantined_streams);
  column("failover_readmissions", r.failover_readmissions);
  column("failover_drops", r.failover_drops);
};

constexpr auto quality_columns = [](const FarmResult& r, auto&& column) {
  column("mean_quality", r.fleet_mean_quality);
  column("quality_histogram", r.quality_histogram);
};

constexpr auto fault_spec_columns = [](const FaultSpec& f, auto&& column) {
  column("overrun_probability", f.overrun.probability);
  column("overrun_factor", f.overrun.factor);
  column("overrun_policy", overrun_policy_name(f.overrun.policy));
  column("loss_probability", f.loss.probability);
};

constexpr auto failure_columns = [](const FailureOutcome& fo,
                                    auto&& column) {
  column("processor", fo.event.processor);
  column("time", fo.event.time);
  column("permanent", fo.event.permanent());
  column("repair", fo.event.repair);
  column("displaced", fo.displaced);
  column("readmitted", fo.readmitted);
  column("dropped", fo.dropped);
  column("recovered", fo.recovered);
  column("first_recovery", fo.first_recovery);
  column("full_recovery", fo.full_recovery);
};

constexpr auto processor_columns = [](const FarmResult& r, std::size_t p,
                                      auto&& column) {
  const ProcessorOutcome& po = r.processors[p];
  column("processor", p);
  column("streams", po.streams_hosted);
  column("frames", po.frames_encoded);
  column("busy_cycles", po.busy_cycles);
  column("span_cycles", po.span_cycles);
  column("utilization", po.utilization());
  column("preemptions", po.preemptions);
  column("overhead_cycles", po.overhead_cycles);
  column("failed", po.failed);
  column("failed_at", po.failed_at);
  column("fault_conceals", po.fault_conceals);
  column("peak_committed_utilization", po.peak_committed_utilization);
};

/// The shards object's counts; its per_shard array is shard_columns.
constexpr auto shards_columns = [](const FarmResult& r, auto&& column) {
  column("count", r.shards);
  column("join_batches", r.join_batches);
  column("max_join_batch", r.max_join_batch);
  column("rebalance_migrations", r.rebalance_migrations);
};

constexpr auto shard_columns = [](const FarmResult& r, std::size_t s,
                                  auto&& column) {
  const ShardOutcome& sh = r.shard_outcomes[s];
  column("shard", s);
  column("first_processor", sh.first_processor);
  column("num_processors", sh.num_processors);
  column("admitted", sh.admitted);
  column("probe_admits", sh.probe_admits);
  column("rejected", sh.rejected);
  column("migrations_in", sh.migrations_in);
  column("migrations_out", sh.migrations_out);
  column("demand_tests", sh.demand_tests);
  column("peak_committed_utilization", sh.peak_committed_utilization);
};

/// The stream table's request columns: the offered stream and the
/// admission verdict.  The JSON and the CSV write every stream from
/// these and outcome_columns.
constexpr auto request_columns = [](const StreamOutcome& so,
                                    auto&& column) {
  column("id", so.spec.id);
  column("mode", mode_name(so.spec.mode));
  column("width", so.spec.width);
  column("height", so.spec.height);
  column("buffer_capacity", so.spec.buffer_capacity);
  column("frame_period", period_of(so.spec));
  column("join_time", so.spec.join_time);
  column("num_frames", so.spec.num_frames);
  column("admitted", so.placement.admitted);
};

/// The stream table's outcome columns.  The JSON writes them for
/// admitted streams only; the CSV writes a rejected stream's from a
/// stream that never ran (processor -1, every other outcome 0).
constexpr auto outcome_columns = [](const StreamOutcome& so,
                                    auto&& column) {
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
};

/// A stream's scalar members: the request, then a rejected stream's
/// reason or an admitted stream's outcome.
constexpr auto stream_columns = [](const StreamOutcome& so, auto&& column) {
  request_columns(so, column);
  if (so.placement.admitted) {
    outcome_columns(so, column);
  } else {
    column("reason", so.placement.reason);
  }
};

/// The trace counts, top-level members of the JSON; the per-buffer
/// drops (one per processor, then the control plane) only when traced.
constexpr auto trace_columns = [](const FarmResult& r, auto&& column) {
  column("trace_events", r.trace.size());
  column("trace_dropped", r.trace_dropped);
  if (!r.trace_dropped_per_buffer.empty()) {
    column("trace_dropped_per_buffer", r.trace_dropped_per_buffer);
  }
};

}  // namespace

std::string summarize(const FarmResult& r) {
  util::JsonWriter w;
  w.raw(obs::version_line("qosfarm"));
  util::text_row(w, seed_columns, r);
  w.raw("fleet:");
  util::text_row(w, fleet_columns, r);
  // Fault rows only when faults were injected; the JSON always has them.
  if (r.fault_spec.any()) {
    w.raw("faults:");
    util::text_row(w, fault_spec_columns, r.fault_spec);
    w.raw("fault totals:");
    util::text_row(w, fault_total_columns, r);
  }
  w.raw("quality:");
  util::text_row(w, quality_columns, r);
  for (std::size_t k = 0; k < r.failures.size(); ++k) {
    w.raw("failure ").raw_unsigned(k).raw(':');
    util::text_row(w, failure_columns, r.failures[k]);
  }
  for (std::size_t p = 0; p < r.processors.size(); ++p) {
    w.raw("proc ").raw_unsigned(p).raw(':');
    util::text_row(w, processor_columns, r, p);
  }
  for (const StreamOutcome& so : r.streams) {
    w.raw("stream ").raw_integer(so.spec.id).raw(':');
    util::text_row(w, stream_columns, so);
  }
  // Shard rows only when the control plane is actually sharded, as in
  // the JSON.
  if (r.shards > 1) {
    w.raw("shards:");
    util::text_row(w, shards_columns, r);
    for (std::size_t s = 0; s < r.shard_outcomes.size(); ++s) {
      w.raw("shard ").raw_unsigned(s).raw(':');
      util::text_row(w, shard_columns, r, s);
    }
  }
  w.raw(r.metrics.summary());
  // Windowed series and SLO sections only when asked for.
  if (r.series.window > 0) {
    w.raw("timeseries:").pair("window").integer(r.series.window).raw('\n');
    w.raw(r.series.summary());
  }
  if (!r.slo.objectives.empty()) w.raw(obs::slo_summary(r.slo));
  w.raw("trace:");
  util::text_row(w, trace_columns, r);
  return w.take();
}

std::string to_json(const FarmResult& r) {
  util::JsonWriter w;
  const auto member = [&w](std::string_view name, const auto& value) {
    w.key(name).value(value);
  };
  const auto object = [&](const auto& columns, const auto&... row) {
    w.begin_object();
    columns(row..., member);
    w.end_object();
  };
  w.begin_object().key("build").begin_object().json(obs::build_json_fields());
  seed_columns(r, member);
  w.end_object().key("fleet").begin_object();
  fleet_columns(r, member);
  fault_total_columns(r, member);
  quality_columns(r, member);
  w.end_object().key("faults");
  object(fault_spec_columns, r.fault_spec);
  w.key("failures").begin_array();
  for (const FailureOutcome& fo : r.failures) object(failure_columns, fo);
  w.end_array().key("processors").begin_array();
  for (std::size_t p = 0; p < r.processors.size(); ++p) {
    object(processor_columns, r, p);
  }
  w.end_array().key("streams").begin_array();
  for (const StreamOutcome& so : r.streams) {
    w.begin_object();
    stream_columns(so, member);
    if (so.placement.admitted) {
      w.key("phase_cycles").begin_object();
      for (int ph = 0; ph < enc::kNumEncodePhases; ++ph) {
        w.key(enc::encode_phase_name(static_cast<enc::EncodePhase>(ph)))
            .integer(so.result.phase_cycles[static_cast<std::size_t>(ph)]);
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  // Shard block only when sharded, so single-shard JSON is unchanged.
  if (r.shards > 1) {
    w.key("shards").begin_object();
    shards_columns(r, member);
    w.key("per_shard").begin_array();
    for (std::size_t s = 0; s < r.shard_outcomes.size(); ++s) {
      object(shard_columns, r, s);
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
  trace_columns(r, member);
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
  const auto stat_cell = [&w](auto, long long v) { w.raw(',').raw_integer(v); };
  w.raw("\nmetric,kind");
  obs::histogram_stats({}, [&w](auto n, long long) { w.raw(',').raw(n); });
  for (const auto& [name, h] : r.metrics.histograms()) {
    w.raw('\n').raw(name).raw(",histogram");
    obs::histogram_stats(h, stat_cell);
  }
  w.raw('\n');
  for (const auto& [name, v] : r.metrics.counters()) {
    w.raw(name).raw(",counter,").raw_integer(v).raw(',').raw_integer(v);
    w.raw(",0,0,0,0,0\n");
  }
  // SLO verdict table, again blank-line separated, only when
  // objectives were configured (a spec has no commas or whitespace).
  if (!r.slo.objectives.empty()) {
    w.raw('\n');
    util::csv_table(w, obs::SloOutcome{}, r.slo.objectives,
                    obs::slo_flat_columns);
  }
  return w.take();
}

}  // namespace qosctrl::farm
