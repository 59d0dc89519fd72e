// Deterministic windowed time series on top of the metrics registry's
// log2 histograms.
//
// A track is a metric name mapped over fixed-width windows of the
// simulated clock: window w covers cycles [w*W, (w+1)*W).  Each window
// holds a full obs::Histogram (count/sum/min/max + 64 log2 buckets), so
// everything the registry promises carries over window by window:
//
//  * merging is bucket-wise addition per (track, window) — commutative
//    and associative — so per-virtual-processor single-writer recorders
//    merged in (window, processor index, emission order) give the same
//    fleet series for any worker or shard count;
//  * a windowed percentile is a pure function of the window's recorded
//    multiset, never of recording order.
//
// Like the schedule trace (and unlike the always-on registry), sampling
// is off unless asked for: with no SeriesRecorder the farm's probe
// (farm/probe.h) skips every series write after one null check.
#pragma once

#include <map>
#include <string>

#include "obs/metrics.h"
#include "rt/types.h"

namespace qosctrl::obs {

/// One metric over fixed windows: sparse map from window index to the
/// window's histogram.  Windows nothing was recorded into do not exist.
using SeriesTrack = std::map<long long, Histogram>;

/// Single-writer windowed recorder (one per virtual processor plus one
/// for the sequential control plane — the same ownership split as the
/// trace ring buffers and the per-processor registries).
class SeriesRecorder {
 public:
  /// `window` is the fixed window width in simulated cycles (> 0).
  explicit SeriesRecorder(rt::Cycles window);

  rt::Cycles window() const { return window_; }

  /// The named track, created empty on first use.  Resolve once and
  /// record through the reference — the data plane hoists its sinks.
  SeriesTrack& track(const std::string& name);

  /// Records `value` into `name`'s window at `time`.
  void record(SeriesTrack& track, rt::Cycles time, long long value);

  const std::map<std::string, SeriesTrack>& tracks() const {
    return tracks_;
  }

 private:
  rt::Cycles window_;
  std::map<std::string, SeriesTrack> tracks_;
};

/// The merged, fleet-wide series: every recorder folded in index order.
/// A pure function of (scenario, config) — byte-identical across
/// workers x shards, pinned by tests/farm/timeseries_determinism_test.
struct TimeSeries {
  rt::Cycles window = 0;  ///< 0 = sampling was off; no tracks exist.
  std::map<std::string, SeriesTrack> tracks;

  /// Folds one recorder in (bucket-wise histogram merge per window).
  /// Call in processor-index order, control plane last.
  void merge(const SeriesRecorder& recorder);

  /// Largest window index present across all tracks; -1 when empty.
  long long last_window() const;

  /// JSON object: {"window":W,"tracks":{name:[[w,count,sum,min,max,
  /// p50,p95,p99],...]}}.  Pure function of the contents.
  std::string to_json() const;

  /// One line per track for the text summary:
  /// "series <name>: windows=K count=N".
  std::string summary() const;
};

}  // namespace qosctrl::obs
