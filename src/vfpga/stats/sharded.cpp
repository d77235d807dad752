#include "vfpga/stats/sharded.hpp"

#include "vfpga/common/contract.hpp"

namespace vfpga::stats {

ShardedSamples::ShardedSamples(std::size_t shards,
                               std::size_t reserve_per_shard) {
  VFPGA_EXPECTS(shards >= 1);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.emplace_back(reserve_per_shard);
  }
}

SampleSet& ShardedSamples::shard(std::size_t index) {
  VFPGA_EXPECTS(index < shards_.size());
  return shards_[index];
}

SampleSet ShardedSamples::merged() const {
  SampleSet all;
  for (const SampleSet& s : shards_) {
    all.merge(s);
  }
  return all;
}

}  // namespace vfpga::stats
