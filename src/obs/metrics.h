// Deterministic metrics registry: named counters and fixed-bucket
// log2 histograms, designed for the farm's split-plane simulation.
//
// Every histogram is a fixed array of 64 power-of-two buckets
// (bucket 0 holds the value 0; bucket b >= 1 holds 2^(b-1) .. 2^b - 1),
// so two properties hold by construction:
//
//  * merging is bucket-wise addition — commutative and associative —
//    so per-processor registries merged in processor-index order give
//    the same fleet registry for any worker count;
//  * a percentile is the upper bound of the bucket containing the
//    target rank — a pure function of the recorded multiset, never of
//    recording order, so reports stay byte-identical across runs.
//
// Quantization is the price: a reported p95 is exact only up to its
// power-of-two bucket.  That is the right trade for an always-on
// registry — recording is an increment, no samples are retained, and
// the existing exact mean/p95 aggregates (start lag, PSNR) keep their
// precision next to the histogram tails.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace qosctrl::obs {

/// Fixed-bucket log2 histogram of non-negative 64-bit values
/// (negative records clamp to 0).
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  /// Bucket index of a value: 0 for v <= 0, else bit_width(v).
  static int bucket_of(long long v);
  /// Largest value bucket `b` holds: 0 for bucket 0, else 2^b - 1.
  static long long bucket_upper(int b);

  void record(long long v);
  /// Bucket-wise addition (commutes; the worker-count-independence
  /// contract of the farm's per-processor registries).
  void merge(const Histogram& other);

  long long count() const { return count_; }
  long long sum() const { return sum_; }
  long long min() const { return count_ > 0 ? min_ : 0; }
  long long max() const { return count_ > 0 ? max_ : 0; }
  long long bucket_count(int b) const { return buckets_[b]; }

  /// Upper bound of the bucket holding rank floor(p * (count - 1)) —
  /// the same rank convention as the farm's exact start-lag p95.
  /// 0 when empty; requires 0 <= p <= 1.
  long long percentile(double p) const;

 private:
  long long buckets_[kNumBuckets] = {};
  long long count_ = 0;
  long long sum_ = 0;
  long long min_ = 0;
  long long max_ = 0;
};

/// The stats every report writes for a histogram, one `column(name,
/// value)` call each, in order: count, sum, min, max, p50, p95, p99.
/// The registry's JSON, its text summary and the farm CSV's metric
/// rows, and the time series' window arrays, are all written from it.
inline constexpr auto histogram_stats = [](const Histogram& h,
                                           auto&& column) {
  column("count", h.count());
  column("sum", h.sum());
  column("min", h.min());
  column("max", h.max());
  column("p50", h.percentile(0.50));
  column("p95", h.percentile(0.95));
  column("p99", h.percentile(0.99));
};

/// Named counters + histograms with deterministic (name-sorted)
/// serialization.  Not thread-safe: the farm keeps one registry per
/// virtual processor (single-writer, like the run queues) plus one for
/// the sequential control plane, and merges them in index order.
class Registry {
 public:
  /// The named counter, created at 0 on first use.
  long long& counter(const std::string& name) { return counters_[name]; }
  /// The named histogram, created empty on first use.
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  /// Adds every counter and merges every histogram of `other` into
  /// this registry (creating missing entries).
  void merge(const Registry& other);

  const std::map<std::string, long long>& counters() const {
    return counters_;
  }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// JSON object: {"counters":{...},"histograms":{name:{count,sum,
  /// min,max,p50,p95,p99}}}.  Pure function of the contents.
  std::string to_json() const;

  /// One line per metric ("metric <name> ..."), for the text summary.
  std::string summary() const;

 private:
  std::map<std::string, long long> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace qosctrl::obs
