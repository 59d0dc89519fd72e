#include "obs/timeseries.h"

#include "util/check.h"
#include "util/json.h"

namespace qosctrl::obs {

SeriesTrack& TimeSeries::track(const std::string& name) {
  QC_EXPECT(window > 0, "time-series window must be positive");
  return tracks[name];
}

void TimeSeries::record(SeriesTrack& track, rt::Cycles time,
                        long long value) {
  QC_DCHECK(window > 0, "time-series window must be positive");
  const long long w = time >= 0 ? time / window : 0;
  track[w].record(value);
}

void TimeSeries::merge(const TimeSeries& other) {
  if (window == 0) window = other.window;
  QC_EXPECT(window == other.window,
            "merged series must share one window width");
  for (const auto& [name, track] : other.tracks) {
    SeriesTrack& dst = tracks[name];
    for (const auto& [w, hist] : track) dst[w].merge(hist);
  }
}

std::string TimeSeries::to_json() const {
  util::JsonWriter w;
  w.begin_object().key("window").integer(window);
  w.key("tracks").begin_object();
  for (const auto& [name, track] : tracks) {
    w.key(name).begin_array();
    for (const auto& [index, h] : track) {
      w.begin_array().integer(index);
      histogram_stats(h, [&w](auto, long long v) { w.integer(v); });
      w.end_array();
    }
    w.end_array();
  }
  w.end_object().end_object();
  return w.take();
}

std::string TimeSeries::summary() const {
  util::JsonWriter w;
  for (const auto& [name, track] : tracks) {
    long long count = 0;
    for (const auto& [index, h] : track) count += h.count();
    w.raw("series ").raw(name).raw(':').pair("windows").value(track.size());
    w.pair("count").integer(count).raw('\n');
  }
  return w.take();
}

}  // namespace qosctrl::obs
