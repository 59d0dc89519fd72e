// Deterministic pseudo-random number generation.
//
// All stochastic parts of the library (synthetic video, execution-time
// jitter, property-test workloads) draw from this generator so that every
// experiment is bit-reproducible from a single seed.  The generator is
// xoshiro256**, seeded through splitmix64 as its authors recommend.
#pragma once

#include <array>
#include <cstdint>

namespace qosctrl::util {

/// Deterministic 64-bit PRNG (xoshiro256**).  Cheap to copy; copies
/// continue the same stream independently.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  // Satisfy UniformRandomBitGenerator so <random> distributions work too.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform integer in [lo, hi] (inclusive).  Requires lo <= hi.
  std::int64_t uniform_i64(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform_01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (no cached spare; stateless apart
  /// from the stream position).
  double normal();

  /// Lognormal with the given log-space parameters.
  double lognormal(double mu, double sigma);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Splittable seed derivation: a decorrelated child stream that is a
  /// pure function of (current state, stream id).  The parent is not
  /// advanced, and forks for distinct ids commute — so a
  /// farm of per-stream generators derived as root.fork(stream_id) is
  /// bit-identical no matter which order (or on which worker thread)
  /// the streams are instantiated.
  Rng fork(std::uint64_t stream_id) const;

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace qosctrl::util
