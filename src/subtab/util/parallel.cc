#include "subtab/util/parallel.h"

#include <algorithm>
#include <thread>
#include <vector>

namespace subtab {

size_t HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

void ParallelFor(size_t total, size_t num_threads,
                 const std::function<void(size_t, size_t, size_t)>& body) {
  if (total == 0) return;
  if (num_threads == 0) num_threads = HardwareThreads();
  num_threads = std::min(num_threads, total);
  if (num_threads <= 1) {
    body(0, 0, total);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(num_threads);
  const size_t chunk = (total + num_threads - 1) / num_threads;
  for (size_t t = 0; t < num_threads; ++t) {
    const size_t begin = t * chunk;
    const size_t end = std::min(begin + chunk, total);
    if (begin >= end) break;
    workers.emplace_back([&body, t, begin, end] { body(t, begin, end); });
  }
  for (auto& w : workers) w.join();
}

}  // namespace subtab
