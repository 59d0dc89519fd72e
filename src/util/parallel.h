// The one worker pool of the library: independent work items pulled
// from an atomic index by a few host threads.  Results stay a pure
// function of the items as long as item i writes only its own slot.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace qosctrl::util {

/// Runs body(i) exactly once for every i in [0, n) on up to `workers`
/// threads, the calling thread included, and never on more threads
/// than items (a non-positive `workers` means one).  Items are handed
/// out in ascending order.  Returns the number of threads that ran.
template <typename Body>
int parallel_for(std::size_t n, int workers, Body&& body) {
  if (n == 0) return 0;
  const int threads = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(std::max(workers, 1)), n));
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      body(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) pool.emplace_back(drain);
  drain();
  for (std::thread& t : pool) t.join();
  return threads;
}

}  // namespace qosctrl::util
