#include "obs/timeseries.h"

#include <sstream>

#include "util/check.h"
#include "util/json.h"

namespace qosctrl::obs {

SeriesRecorder::SeriesRecorder(rt::Cycles window) : window_(window) {
  QC_EXPECT(window > 0, "time-series window must be positive");
}

SeriesTrack& SeriesRecorder::track(const std::string& name) {
  return tracks_[name];
}

void SeriesRecorder::record(SeriesTrack& track, rt::Cycles time,
                            long long value) {
  const long long w = time >= 0 ? time / window_ : 0;
  track[w].record(value);
}

void TimeSeries::merge(const SeriesRecorder& recorder) {
  if (window == 0) window = recorder.window();
  QC_EXPECT(window == recorder.window(),
            "merged recorders must share one window width");
  for (const auto& [name, track] : recorder.tracks()) {
    SeriesTrack& dst = tracks[name];
    for (const auto& [w, hist] : track) dst[w].merge(hist);
  }
}

long long TimeSeries::last_window() const {
  long long last = -1;
  for (const auto& [name, track] : tracks) {
    if (!track.empty()) last = std::max(last, track.rbegin()->first);
  }
  return last;
}

std::string TimeSeries::to_json() const {
  util::JsonWriter w;
  w.begin_object().key("window").integer(window);
  w.key("tracks").begin_object();
  for (const auto& [name, track] : tracks) {
    w.key(name).begin_array();
    for (const auto& [index, h] : track) {
      w.begin_array().integer(index).integer(h.count()).integer(h.sum());
      w.integer(h.min()).integer(h.max()).integer(h.percentile(0.50));
      w.integer(h.percentile(0.95)).integer(h.percentile(0.99));
      w.end_array();
    }
    w.end_array();
  }
  w.end_object().end_object();
  return w.take();
}

std::string TimeSeries::summary() const {
  std::ostringstream os;
  for (const auto& [name, track] : tracks) {
    long long count = 0;
    for (const auto& [w, h] : track) count += h.count();
    os << "series " << name << ": windows=" << track.size()
       << " count=" << count << "\n";
  }
  return os.str();
}

}  // namespace qosctrl::obs
