// The farm's single emission point for observability (internal to
// src/farm/).  Each virtual processor and the sequential control plane
// own a private metrics registry and, when configured, a trace buffer
// (FarmConfig::trace) and a time series (FarmConfig::ts_window).  A
// Probe is one plane's view of them: one method per simulation event,
// writing every live sink.  The simulator never touches a sink, so the
// null checks on the optional ones live here only.  A processor's probe
// also keeps that processor's ProcessorOutcome tallies, from the same
// events.  Sinks owns them and merges them in index order, control
// plane last, so the merged output does not depend on the worker count.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "farm/simulator.h"

namespace qosctrl::farm {

class Probe {
 public:
  /// Virtual processor `processor`'s probe; resolves its sinks once.
  Probe(int processor, obs::Registry& metrics, obs::TraceBuffer* trace,
        obs::TimeSeries* series);
  /// The control plane's probe; a plane of `shards` > 1 also gets
  /// `/shard<k>` admission and rebalance tracks.
  Probe(obs::TraceBuffer* trace, obs::TimeSeries* series, int shards);

  // ----- Data plane.
  /// A stream segment joined this processor's run queue.
  void on_host() { ++streams_hosted_; }
  void on_queue_depth(rt::Cycles now, std::size_t depth) {
    trace(obs::EventKind::kQueueDepth, now, -1, -1, to_ll(depth));
  }
  void on_enqueue(rt::Cycles now, std::size_t depth) {
    h_queue_->record(to_ll(depth));
    record(s_queue_, now, to_ll(depth));
    on_queue_depth(now, depth);
  }
  /// A frame entered service `lag` cycles after its camera arrival.
  void on_dispatch(rt::Cycles now, int stream, int frame,
                   rt::Cycles deadline, rt::Cycles lag) {
    ++*dispatched_;
    h_lag_->record(lag);
    trace(obs::EventKind::kDispatch, now, stream, frame, deadline);
  }
  /// A C=D relay took a handed-off frame (the head counted it).
  void on_relay_dispatch(rt::Cycles now, int stream, int frame,
                         rt::Cycles deadline) {
    trace(obs::EventKind::kDispatch, now, stream, frame, deadline);
  }
  /// A preempted frame resumed after a `switch_cost` switch-in.
  void on_resume(rt::Cycles now, int stream, int frame, rt::Cycles left,
                 rt::Cycles switch_cost) {
    overhead_ += switch_cost;
    trace(obs::EventKind::kResume, now, stream, frame, left);
  }
  /// The running frame was suspended; `switch_cost` is its switch-out.
  void on_preempt(rt::Cycles now, int stream, int frame, rt::Cycles left,
                  std::size_t depth, rt::Cycles switch_cost) {
    ++*preemptions_;
    overhead_ += switch_cost;
    trace(obs::EventKind::kPreempt, now, stream, frame, left);
    on_queue_depth(now, depth);
  }
  void on_fault_inject(rt::Cycles now, int stream, int frame,
                       rt::Cycles demand, bool aborted) {
    trace(obs::EventKind::kFaultInject, now, stream, frame, demand,
          aborted ? 1u : 0u);
  }
  /// A frame's service ended; a non-delivered outcome is a conceal.
  void on_complete(rt::Cycles now, pipe::ControlMode mode, int stream,
                   int frame, rt::Cycles latency, rt::Cycles encode_cycles,
                   obs::CompleteOutcome outcome) {
    span_ = now;
    if (outcome != obs::CompleteOutcome::kDelivered) {
      ++*concealed_;
      record(s_concealed_, mode, now, 1);
    }
    ++*completed_;
    h_latency_->record(latency);
    h_encode_->record(encode_cycles);
    record(s_completed_, mode, now, 1);
    record(s_latency_, mode, now, latency);
    record(s_encode_, now, encode_cycles);
    trace(obs::EventKind::kComplete, now, stream, frame, encode_cycles,
          static_cast<std::uint32_t>(outcome));
  }
  /// A C=D head handed a frame on (the tail counts the completion).
  void on_handoff(rt::Cycles now, int stream, int frame,
                  rt::Cycles encode_cycles) {
    span_ = now;
    trace(obs::EventKind::kComplete, now, stream, frame, encode_cycles,
          static_cast<std::uint32_t>(obs::CompleteOutcome::kDelivered));
  }
  void on_phases(rt::Cycles now,
                 const std::array<rt::Cycles, enc::kNumEncodePhases>& cycles) {
    for (std::size_t ph = 0; ph < cycles.size(); ++ph) {
      h_phase_[ph]->record(cycles[ph]);
      phase_total_[ph] += cycles[ph];
      record(s_phase_[ph], now, cycles[ph]);
    }
    for (std::size_t ph = 0; ph < phase_total_.size(); ++ph) {
      trace(obs::EventKind::kPhaseCycles, now, -1, -1, phase_total_[ph],
            static_cast<std::uint32_t>(ph));
    }
  }
  void on_miss(rt::Cycles now, pipe::ControlMode mode, int stream, int frame,
               rt::Cycles lateness) {
    ++*display_misses_;
    record(s_misses_, mode, now, lateness);
    trace(obs::EventKind::kDeadlineMiss, now, stream, frame, lateness);
  }
  /// A frame concealed unserved (kConceal), or cut off mid-service by
  /// an outage (kConcealService).  Every reason but a quarantine drop
  /// is this processor's outage.
  void on_conceal(rt::Cycles now, pipe::ControlMode mode, obs::EventKind kind,
                  int stream, int frame, rt::Cycles cycles,
                  obs::ConcealReason reason) {
    if (reason != obs::ConcealReason::kQuarantineDrop) ++fault_conceals_;
    ++*concealed_;
    record(s_concealed_, mode, now, 1);
    trace(kind, now, stream, frame, cycles,
          static_cast<std::uint32_t>(reason));
  }
  /// Served cycles: the fleet busy_cycles track and this processor's
  /// busy_cycles/cpu<p>, the utilization heatmap's row.  The row is
  /// created on its first record, so an idle processor has none.
  void on_busy(rt::Cycles now, rt::Cycles cycles) {
    busy_ += cycles;
    if (series_ == nullptr) return;
    if (s_busy_cpu_ == nullptr) s_busy_cpu_ = &series_->track(busy_cpu_name_);
    series_->record(*s_busy_, now, cycles);
    series_->record(*s_busy_cpu_, now, cycles);
  }
  void on_camera_skip() { ++*camera_skips_; }
  void on_quarantine(rt::Cycles now, int stream, rt::Cycles until) {
    trace(obs::EventKind::kQuarantine, now, stream, -1, until);
  }
  void on_epoch_switch(rt::Cycles now, int stream, rt::Cycles old_budget,
                       rt::Cycles new_budget) {
    trace(obs::EventKind::kEpochClose, now, stream, -1, old_budget);
    trace(obs::EventKind::kEpochOpen, now, stream, -1, new_budget);
  }
  void on_proc_fail(rt::Cycles now, rt::Cycles end, bool permanent) {
    trace(obs::EventKind::kProcFail, now, -1, -1, permanent ? -1 : end,
          permanent ? 1u : 0u);
  }
  void on_proc_repair(rt::Cycles now) {
    trace(obs::EventKind::kProcRepair, now, -1, -1, 0);
  }

  // ----- Control plane.
  void on_admit(rt::Cycles now, int stream, const Placement& pl, int shard) {
    record(s_admitted_, now, 1);
    if (!s_admitted_shard_.empty()) record(s_admitted_shard_[shard], now, 1);
    trace(obs::EventKind::kAdmit, now, stream, -1, pl.processor,
          (pl.migrated ? 1u : 0u) | (pl.degraded ? 2u : 0u) |
              (pl.via_renegotiation ? 4u : 0u));
    if (pl.migrated) {
      trace(obs::EventKind::kMigrate, now, stream, -1, pl.processor);
    }
  }
  void on_reject(rt::Cycles now, int stream) {
    record(s_rejected_, now, 1);
    trace(obs::EventKind::kReject, now, stream, -1, -1);
  }
  void on_renegotiate(const BudgetRenegotiation& r) {
    trace(r.grow ? obs::EventKind::kRestore : obs::EventKind::kRenegotiate,
          r.effective_time, r.stream_id, -1, r.table_budget);
  }
  void on_failover(rt::Cycles now, int stream, int processor) {
    trace(obs::EventKind::kFailover, now, stream, -1, processor);
  }
  void on_failover_drop(rt::Cycles now, int stream, int dead_processor) {
    trace(obs::EventKind::kFailoverDrop, now, stream, -1, dead_processor);
  }
  void on_rebalance(rt::Cycles now, int stream, int processor, int shard) {
    record(s_rebalance_, now, 1);
    if (!s_rebalance_shard_.empty()) record(s_rebalance_shard_[shard], now, 1);
    trace(obs::EventKind::kRebalance, now, stream, -1, processor,
          static_cast<std::uint32_t>(shard));
  }
  void on_join_batch(rt::Cycles now, std::size_t joins) {
    trace(obs::EventKind::kJoinBatch, now, -1, -1, to_ll(joins));
  }
  void on_slo_alert(rt::Cycles now, long long window, std::size_t objective) {
    trace(obs::EventKind::kSloAlert, now, -1, -1, window,
          static_cast<std::uint32_t>(objective));
  }

  /// Writes a processor probe's tallies into `out`, leaving the
  /// failure and peak fields to the control plane.
  void write_tallies(ProcessorOutcome* out) const;

 private:
  /// A fleet track and its per-pipe::ControlMode variants, which the
  /// SLO class scopes read.
  struct ClassTracks {
    obs::SeriesTrack* fleet = nullptr;
    std::array<obs::SeriesTrack*, 3> by_class{};
  };
  ClassTracks class_tracks(const std::string& name);

  static long long to_ll(std::size_t n) { return static_cast<long long>(n); }
  void trace(obs::EventKind kind, rt::Cycles t, int stream, int frame,
             std::int64_t arg, std::uint32_t aux = 0) {
    if (trace_ != nullptr) trace_->push(kind, t, stream, frame, arg, aux);
  }
  void record(obs::SeriesTrack* t, rt::Cycles at, long long v) {
    if (series_ != nullptr) series_->record(*t, at, v);
  }
  void record(const ClassTracks& t, pipe::ControlMode mode, rt::Cycles at,
              long long v) {
    record(t.fleet, at, v);
    record(t.by_class[static_cast<std::size_t>(mode)], at, v);
  }

  /// The processor's busy_cycles/cpu<p> track name; empty on the
  /// control plane.
  std::string busy_cpu_name_;
  obs::TraceBuffer* trace_;
  obs::TimeSeries* series_;
  // Processor tallies the registry does not count.
  rt::Cycles busy_ = 0, span_ = 0, overhead_ = 0;
  int streams_hosted_ = 0, fault_conceals_ = 0;
  long long *dispatched_ = nullptr, *completed_ = nullptr;
  long long *preemptions_ = nullptr, *concealed_ = nullptr;
  long long *display_misses_ = nullptr, *camera_skips_ = nullptr;
  obs::Histogram *h_latency_ = nullptr, *h_lag_ = nullptr;
  obs::Histogram *h_queue_ = nullptr, *h_encode_ = nullptr;
  std::array<obs::Histogram*, enc::kNumEncodePhases> h_phase_{};
  /// Cumulative per-phase cycles, the trace's phase counter tracks.
  std::array<long long, enc::kNumEncodePhases> phase_total_{};
  // Series tracks, null unless series_ is live.
  obs::SeriesTrack *s_queue_ = nullptr, *s_encode_ = nullptr,
                   *s_busy_ = nullptr, *s_busy_cpu_ = nullptr;
  std::array<obs::SeriesTrack*, enc::kNumEncodePhases> s_phase_{};
  ClassTracks s_latency_, s_completed_, s_misses_, s_concealed_;
  obs::SeriesTrack *s_admitted_ = nullptr, *s_rejected_ = nullptr,
                   *s_rebalance_ = nullptr;
  std::vector<obs::SeriesTrack*> s_admitted_shard_, s_rebalance_shard_;
};

/// Every sink of one run, and the probes onto them.  The probes resolve
/// their registry entries here, on the sequential side: allocated by a
/// worker, those long-lived entries sit among short-lived session memory
/// in the thread's malloc arena and keep it from shrinking between
/// processors (+10% peak RSS on the flash-storm benchmark).
class Sinks {
 public:
  explicit Sinks(const FarmConfig& config);
  Sinks(const Sinks&) = delete;  // the probes point into the members
  Sinks& operator=(const Sinks&) = delete;

  /// Processor p's probe; one worker at a time uses it.
  Probe& processor(int p) { return probes_[static_cast<std::size_t>(p)]; }
  Probe& control() { return probes_.back(); }
  /// Folds the series into `out`, in index order; the SLOs read it
  /// before the trace merge, so their alerts still land in the trace.
  void merge_series(obs::TimeSeries* out) const;
  /// Merges the registries (`control` last) and the trace.
  void merge(const obs::Registry& control, FarmResult* result);

 private:
  int num_processors_;
  std::vector<obs::Registry> metrics_;
  std::optional<obs::TraceRecorder> trace_;
  std::vector<obs::TimeSeries> series_;  ///< empty, or one per buffer
  std::vector<Probe> probes_;  ///< processors, then the control plane
};

}  // namespace qosctrl::farm
