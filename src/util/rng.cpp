#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace qosctrl::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::int64_t Rng::uniform_i64(std::int64_t lo, std::int64_t hi) {
  QC_EXPECT(lo <= hi, "uniform_i64 requires lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ULL) - (~0ULL) % span;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::uniform_01() {
  // 53 random mantissa bits.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform_01();
}

double Rng::normal() {
  // Box-Muller; guard against log(0).
  double u1 = uniform_01();
  while (u1 <= 0.0) u1 = uniform_01();
  const double u2 = uniform_01();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(mu + sigma * normal());
}

bool Rng::chance(double p) { return uniform_01() < p; }

Rng Rng::fork(std::uint64_t stream_id) const {
  // SplitMix-style finalization of (state, id): fold the four state
  // words with distinct odd multipliers, then push the id through the
  // same splitmix64 pipeline the constructor uses.  Deterministic,
  // const, and well-decorrelated for adjacent ids.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  h ^= state_[0] * 0xbf58476d1ce4e5b9ULL;
  h = rotl(h, 23);
  h ^= state_[1] * 0x94d049bb133111ebULL;
  h = rotl(h, 29);
  h ^= state_[2] * 0xff51afd7ed558ccdULL;
  h = rotl(h, 31);
  h ^= state_[3] * 0xc4ceb9fe1a85ec53ULL;
  std::uint64_t x = h + stream_id * 0x9e3779b97f4a7c15ULL;
  return Rng(splitmix64(x));
}

}  // namespace qosctrl::util
