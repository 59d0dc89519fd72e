// The windowed time series' contract: values land in the right
// window, merging is commutative bucket-wise addition, windowed
// percentiles match the log2-bucket reference computed from a sorted
// copy, and the JSON shape is pinned.
#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <vector>

#include "util/rng.h"

namespace qosctrl::obs {
namespace {

TEST(TimeSeriesTest, ValuesLandInTheirWindow) {
  TimeSeries rec{.window = 100, .tracks = {}};
  SeriesTrack& t = rec.track("latency");
  rec.record(t, 0, 5);
  rec.record(t, 99, 7);    // still window 0
  rec.record(t, 100, 11);  // window 1
  rec.record(t, 350, 13);  // window 3

  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.at(0).count(), 2);
  EXPECT_EQ(t.at(0).sum(), 12);
  EXPECT_EQ(t.at(1).count(), 1);
  EXPECT_EQ(t.at(3).max(), 13);
  EXPECT_EQ(t.count(2), 0u);  // untouched windows do not exist
}

TEST(TimeSeriesTest, NegativeTimesClampToWindowZero) {
  TimeSeries rec{.window = 100, .tracks = {}};
  SeriesTrack& t = rec.track("x");
  rec.record(t, static_cast<rt::Cycles>(-50), 1);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.begin()->first, 0);
}

TEST(TimeSeriesTest, TrackResolutionIsStable) {
  TimeSeries rec{.window = 10, .tracks = {}};
  SeriesTrack& a = rec.track("a");
  SeriesTrack& again = rec.track("a");
  EXPECT_EQ(&a, &again);
  EXPECT_EQ(rec.tracks.size(), 1u);
}

TEST(TimeSeriesTest, MergeIsOrderIndependent) {
  // Three series with interleaved windows and overlapping tracks:
  // any merge order gives the same fleet series (the worker/shard
  // independence contract).
  util::Rng rng(42);
  std::vector<TimeSeries> recs;
  for (int r = 0; r < 3; ++r) {
    recs.push_back(TimeSeries{.window = 50, .tracks = {}});
    SeriesTrack& lat = recs.back().track("latency");
    SeriesTrack& q = recs.back().track("queue");
    for (int i = 0; i < 200; ++i) {
      const auto at = static_cast<rt::Cycles>(rng.uniform_i64(0, 999));
      recs.back().record(lat, at, rng.uniform_i64(1, 1 << 20));
      if (i % 3 == r) {
        recs.back().record(q, at, rng.uniform_i64(0, 31));
      }
    }
  }

  TimeSeries forward;
  for (const TimeSeries& r : recs) forward.merge(r);
  TimeSeries backward;
  for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
    backward.merge(*it);
  }
  EXPECT_EQ(forward.to_json(), backward.to_json());
  EXPECT_EQ(forward.window, 50);
}

TEST(TimeSeriesTest, WindowedPercentilesMatchSortedReference) {
  // The windowed p50/p95/p99 must equal the histogram convention
  // applied to that window's multiset alone: bucket_upper of the
  // bucket holding rank floor(p * (count - 1)).
  util::Rng rng(7);
  TimeSeries rec{.window = 1000, .tracks = {}};
  SeriesTrack& t = rec.track("v");
  std::map<long long, std::vector<long long>> per_window;
  for (int i = 0; i < 5000; ++i) {
    const auto at = static_cast<rt::Cycles>(rng.uniform_i64(0, 9999));
    const auto v = rng.uniform_i64(1, 1 << 24);
    rec.record(t, at, v);
    per_window[static_cast<long long>(at) / 1000].push_back(v);
  }

  TimeSeries series;
  series.merge(rec);
  const SeriesTrack& merged = series.tracks.at("v");
  ASSERT_EQ(merged.size(), per_window.size());
  for (auto& [w, values] : per_window) {
    std::sort(values.begin(), values.end());
    const Histogram& h = merged.at(w);
    ASSERT_EQ(h.count(), static_cast<long long>(values.size()));
    for (const double p : {0.50, 0.95, 0.99}) {
      const std::size_t rank = static_cast<std::size_t>(
          p * static_cast<double>(values.size() - 1));
      const long long exact = values[rank];
      EXPECT_EQ(h.percentile(p),
                Histogram::bucket_upper(Histogram::bucket_of(exact)))
          << "window " << w << " p" << p;
    }
  }
}

TEST(TimeSeriesTest, MergeAdoptsWindowAndRejectsNothingWhenEmpty) {
  TimeSeries series;
  TimeSeries rec{.window = 25, .tracks = {}};
  series.merge(rec);  // an empty series still pins the window width
  EXPECT_EQ(series.window, 25);
  EXPECT_EQ(series.to_json(), "{\"window\":25,\"tracks\":{}}");
}

TEST(TimeSeriesTest, JsonShapeIsPinned) {
  TimeSeries rec{.window = 10, .tracks = {}};
  SeriesTrack& t = rec.track("lat");
  rec.record(t, 5, 3);
  rec.record(t, 7, 4);
  rec.record(t, 25, 100);
  TimeSeries series;
  series.merge(rec);
  // Window 0 holds {3, 4}: every percentile ranks to
  // floor(p * (count - 1)) = 0, the bucket holding 3 (upper bound 3).
  EXPECT_EQ(series.to_json(),
            "{\"window\":10,\"tracks\":{\"lat\":[[0,2,7,3,4,3,3,3],"
            "[2,1,100,100,100,127,127,127]]}}");
  EXPECT_EQ(series.summary(), "series lat: windows=2 count=3\n");
}

TEST(TimeSeriesDeath, TrackingRequiresAPositiveWindow) {
  TimeSeries off;  // window 0: sampling off
  EXPECT_DEATH(off.track("x"), "window must be positive");
}

}  // namespace
}  // namespace qosctrl::obs
