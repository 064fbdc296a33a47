#ifndef SUBTAB_UTIL_PARALLEL_H_
#define SUBTAB_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

/// \file parallel.h
/// Static-partition parallel-for used by the embedding trainer.
/// Work is split into `num_threads` contiguous shards so that each shard can
/// own an independent RNG stream, keeping runs reproducible for a fixed
/// thread count (and exactly reproducible with num_threads == 1).

namespace subtab {

/// Number of hardware threads, at least 1.
size_t HardwareThreads();

/// Runs body(shard_index, begin, end) on `num_threads` shards covering
/// [0, total). A num_threads of 0 means HardwareThreads(); 1 runs inline.
void ParallelFor(size_t total, size_t num_threads,
                 const std::function<void(size_t shard, size_t begin, size_t end)>& body);

}  // namespace subtab

#endif  // SUBTAB_UTIL_PARALLEL_H_
