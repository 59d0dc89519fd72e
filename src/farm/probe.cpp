#include "farm/probe.h"

#include <string>

#include "util/check.h"

namespace qosctrl::farm {
namespace {

std::string phase_metric(std::size_t ph) {
  return std::string("phase_") +
         enc::encode_phase_name(static_cast<enc::EncodePhase>(ph)) +
         "_cycles";
}

}  // namespace

Probe::Probe(int processor, obs::Registry& metrics, obs::TraceBuffer* trace,
             obs::SeriesRecorder* series)
    : busy_cpu_name_("busy_cycles/cpu" + std::to_string(processor)),
      trace_(trace),
      series_(series),
      dispatched_(&metrics.counter("frames_dispatched")),
      completed_(&metrics.counter("frames_completed")),
      preemptions_(&metrics.counter("preemptions")),
      concealed_(&metrics.counter("frames_concealed")),
      display_misses_(&metrics.counter("display_misses")),
      camera_skips_(&metrics.counter("camera_skips")),
      h_latency_(&metrics.histogram("frame_latency_cycles")),
      h_lag_(&metrics.histogram("start_lag_cycles")),
      h_queue_(&metrics.histogram("queue_depth")),
      h_encode_(&metrics.histogram("encode_cycles")) {
  for (std::size_t ph = 0; ph < h_phase_.size(); ++ph) {
    h_phase_[ph] = &metrics.histogram(phase_metric(ph));
  }
  if (series_ == nullptr) return;
  s_queue_ = &series_->track("queue_depth");
  s_encode_ = &series_->track("encode_cycles");
  s_busy_ = &series_->track("busy_cycles");
  for (std::size_t ph = 0; ph < s_phase_.size(); ++ph) {
    s_phase_[ph] = &series_->track(phase_metric(ph));
  }
  s_latency_ = class_tracks("frame_latency_cycles");
  s_completed_ = class_tracks("frames_completed");
  s_misses_ = class_tracks("display_misses");
  s_concealed_ = class_tracks("frames_concealed");
}

Probe::Probe(obs::TraceBuffer* trace, obs::SeriesRecorder* series,
             int shards)
    : trace_(trace), series_(series) {
  if (series_ == nullptr) return;
  s_admitted_ = &series_->track("admitted");
  s_rejected_ = &series_->track("rejected");
  s_rebalance_ = &series_->track("rebalance");
  for (int s = 0; shards > 1 && s < shards; ++s) {
    const std::string suffix = "/shard" + std::to_string(s);
    s_admitted_shard_.push_back(&series_->track("admitted" + suffix));
    s_rebalance_shard_.push_back(&series_->track("rebalance" + suffix));
  }
}

void Probe::write_tallies(ProcessorOutcome* out) const {
  out->busy_cycles = busy_;
  out->span_cycles = span_;
  out->frames_encoded = static_cast<int>(*completed_);
  out->streams_hosted = streams_hosted_;
  out->preemptions = static_cast<int>(*preemptions_);
  out->overhead_cycles = overhead_;
  out->fault_conceals = fault_conceals_;
}

Probe::ClassTracks Probe::class_tracks(const std::string& name) {
  ClassTracks t{&series_->track(name), {}};
  const char* const suffix[] = {"@controlled", "@constant", "@feedback"};
  for (std::size_t c = 0; c < t.by_class.size(); ++c) {
    t.by_class[c] = &series_->track(name + suffix[c]);
  }
  return t;
}

Sinks::Sinks(const FarmConfig& config)
    : num_processors_(config.num_processors),
      metrics_(static_cast<std::size_t>(config.num_processors)) {
  if (config.trace) {
    QC_EXPECT(config.trace_buffer_capacity > 0,
              "trace buffer capacity must be positive");
    trace_.emplace(config.num_processors,
                   static_cast<std::size_t>(config.trace_buffer_capacity));
  }
  if (config.ts_window > 0) {
    series_.reserve(static_cast<std::size_t>(config.num_processors) + 1);
    for (int p = 0; p <= config.num_processors; ++p) {
      series_.emplace_back(config.ts_window);
    }
  }
  probes_.reserve(static_cast<std::size_t>(config.num_processors) + 1);
  for (int p = 0; p < config.num_processors; ++p) {
    const auto i = static_cast<std::size_t>(p);
    probes_.emplace_back(p, metrics_[i],
                         trace_ ? trace_->processor(p) : nullptr,
                         series_.empty() ? nullptr : &series_[i]);
  }
  probes_.emplace_back(trace_ ? trace_->control() : nullptr,
                       series_.empty() ? nullptr : &series_.back(),
                       config.shards);
}

void Sinks::merge_series(obs::TimeSeries* out) const {
  for (const obs::SeriesRecorder& r : series_) out->merge(r);
}

void Sinks::merge(const obs::Registry& control, FarmResult* result) {
  for (const obs::Registry& r : metrics_) result->metrics.merge(r);
  result->metrics.merge(control);
  if (trace_) {
    result->trace = trace_->merged();
    result->trace_dropped = trace_->dropped();
    for (int p = 0; p <= num_processors_; ++p) {
      result->trace_dropped_per_buffer.push_back(
          trace_->processor(p)->dropped());
    }
  }
  result->metrics.counter("trace_dropped") = result->trace_dropped;
}

}  // namespace qosctrl::farm
