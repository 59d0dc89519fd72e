#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "util/json.h"

namespace qosctrl::obs {

int Histogram::bucket_of(long long v) {
  if (v <= 0) return 0;
  return std::bit_width(static_cast<unsigned long long>(v));
}

long long Histogram::bucket_upper(int b) {
  if (b <= 0) return 0;
  if (b >= kNumBuckets - 1) return (1LL << (kNumBuckets - 2)) - 1 +
                                   (1LL << (kNumBuckets - 2));
  return (1LL << b) - 1;
}

void Histogram::record(long long v) {
  if (v < 0) v = 0;
  ++buckets_[bucket_of(v)];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (int b = 0; b < kNumBuckets; ++b) buckets_[b] += other.buckets_[b];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

long long Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  const long long rank = static_cast<long long>(
      p * static_cast<double>(count_ - 1));
  long long seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += buckets_[b];
    if (seen > rank) return bucket_upper(b);
  }
  return bucket_upper(kNumBuckets - 1);
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, hist] : other.histograms_) {
    histograms_[name].merge(hist);
  }
}

std::string Registry::to_json() const {
  util::JsonWriter w;
  w.begin_object().key("counters").begin_object();
  for (const auto& [name, value] : counters_) w.key(name).integer(value);
  w.end_object().key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name).begin_object();
    w.key("count").integer(h.count()).key("sum").integer(h.sum());
    w.key("min").integer(h.min()).key("max").integer(h.max());
    w.key("p50").integer(h.percentile(0.50));
    w.key("p95").integer(h.percentile(0.95));
    w.key("p99").integer(h.percentile(0.99));
    w.end_object();
  }
  w.end_object().end_object();
  return w.take();
}

std::string Registry::summary() const {
  std::ostringstream os;
  for (const auto& [name, h] : histograms_) {
    os << "metric " << name << ": count=" << h.count()
       << " sum=" << h.sum() << " min=" << h.min() << " max=" << h.max()
       << " p50=" << h.percentile(0.50) << " p95=" << h.percentile(0.95)
       << " p99=" << h.percentile(0.99) << "\n";
  }
  if (!counters_.empty()) {
    os << "counters:";
    for (const auto& [name, value] : counters_) {
      os << ' ' << name << '=' << value;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace qosctrl::obs
