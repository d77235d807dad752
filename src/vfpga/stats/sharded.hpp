// Shard-per-worker sample accumulation for multi-threaded harnesses.
//
// The multi-flow generator's worker threads record latency samples on
// the hot path. A shared SampleSet behind a mutex would serialize the
// workers (and show up in the measurement); instead each worker owns
// one shard and writes it with no synchronization at all — the only
// cross-thread handoff is the fork/join of the thread pool, whose
// join provides the happens-before edge for the final merge.
#pragma once

#include <vector>

#include "vfpga/stats/summary.hpp"

namespace vfpga::stats {

class ShardedSamples {
 public:
  explicit ShardedSamples(std::size_t shards, std::size_t reserve_per_shard = 0);

  /// Shard `index` — exclusive to one worker while the pool runs.
  [[nodiscard]] SampleSet& shard(std::size_t index);

  /// Combine all shards. Call only after the workers joined.
  [[nodiscard]] SampleSet merged() const;

 private:
  std::vector<SampleSet> shards_;
};

}  // namespace vfpga::stats
