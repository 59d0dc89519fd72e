#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace qosctrl::util {
namespace {

struct PoolRun {
  int threads = 0;
  std::vector<int> calls;  ///< body calls per index
  std::size_t distinct_thread_ids = 0;
};

PoolRun run(std::size_t n, int workers) {
  PoolRun r;
  r.calls.assign(n, 0);
  std::mutex mu;
  std::set<std::thread::id> ids;
  r.threads = parallel_for(n, workers, [&](std::size_t i) {
    const std::lock_guard<std::mutex> lock(mu);
    ++r.calls[i];
    ids.insert(std::this_thread::get_id());
  });
  r.distinct_thread_ids = ids.size();
  return r;
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const int workers : {1, 2, 7}) {
    for (const std::size_t n : {1u, 2u, 5u, 64u}) {
      const PoolRun r = run(n, workers);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(r.calls[i], 1) << "index " << i << " at " << workers
                                 << " workers over " << n << " items";
      }
    }
  }
}

TEST(ParallelFor, NeverStartsMoreThreadsThanItems) {
  for (const int workers : {1, 2, 3, 16}) {
    for (const std::size_t n : {1u, 2u, 3u, 40u}) {
      const PoolRun r = run(n, workers);
      const int expected =
          static_cast<int>(std::min<std::size_t>(n, workers));
      EXPECT_EQ(r.threads, expected) << workers << " workers, " << n
                                     << " items";
      EXPECT_LE(r.distinct_thread_ids, n);
      EXPECT_LE(r.distinct_thread_ids, static_cast<std::size_t>(r.threads));
    }
  }
}

TEST(ParallelFor, OneWorkerRunsInOrderOnTheCaller) {
  std::vector<std::size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  bool on_caller = true;
  EXPECT_EQ(parallel_for(4, 1,
                         [&](std::size_t i) {
                           order.push_back(i);
                           on_caller &= std::this_thread::get_id() == caller;
                         }),
            1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(on_caller);
}

TEST(ParallelFor, NoItemsStartsNothing) {
  EXPECT_EQ(run(0, 4).threads, 0);
  EXPECT_EQ(run(3, 0).threads, 1);  // non-positive workers: the caller
}

}  // namespace
}  // namespace qosctrl::util
