#include "util/rng.h"

#include <gtest/gtest.h>

#include <set>

namespace qosctrl::util {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.next_u64() != c.next_u64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformI64Bounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_i64(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformI64HitsAllValues) {
  Rng rng(8);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_i64(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformI64Degenerate) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_i64(3, 3), 3);
}

TEST(Rng, Uniform01Range) {
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsHalf) {
  Rng rng(11);
  double acc = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform_01();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(12);
  double sum = 0, sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, LognormalUnitMean) {
  // exp(N(-s^2/2, s)) has mean 1.
  Rng rng(13);
  const double sigma = 0.25;
  double acc = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    acc += rng.lognormal(-0.5 * sigma * sigma, sigma);
  }
  EXPECT_NEAR(acc / n, 1.0, 0.01);
}

TEST(Rng, ChanceFrequency) {
  Rng rng(14);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkIsDeterministicAndPure) {
  Rng a(21), b(21);
  Rng fa = a.fork(3), fb = b.fork(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fa.next_u64(), fb.next_u64());
  // fork() does not advance the parent.
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkOrderIndependent) {
  // Forks commute: deriving stream 7 before or after stream 2 yields
  // the same stream 7 — the property the farm's worker threads rely on.
  Rng a(22), b(22);
  Rng a7 = a.fork(7);
  (void)a.fork(2);
  (void)b.fork(2);
  Rng b7 = b.fork(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a7.next_u64(), b7.next_u64());
}

TEST(Rng, ForkStreamsAreMutuallyDecorrelated) {
  Rng root(23);
  Rng s0 = root.fork(0), s1 = root.fork(1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (s0.next_u64() == s1.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
  // Adjacent ids must not produce shifted copies of one stream either.
  Rng t0 = root.fork(100), t1 = root.fork(101);
  (void)t0.next_u64();  // offset by one draw
  equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (t0.next_u64() == t1.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkDependsOnParentState) {
  Rng a(24), b(24);
  (void)b.next_u64();  // different state -> different forks
  Rng fa = a.fork(5), fb = b.fork(5);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (fa.next_u64() == fb.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

}  // namespace
}  // namespace qosctrl::util
