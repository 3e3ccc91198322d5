#include "src/corpus/sharded_whynot_oracle.h"

namespace yask {

namespace {

std::vector<std::unique_ptr<ShardLeg>> ShardLegs(const ShardedCorpus& corpus) {
  std::vector<std::unique_ptr<ShardLeg>> legs;
  legs.reserve(corpus.num_shards());
  for (size_t s = 0; s < corpus.num_shards(); ++s) {
    const Corpus& shard = corpus.shard(s);
    legs.push_back(std::make_unique<LocalShardLeg>(
        OracleShardView{shard.store(), shard.setr(),
                        shard.has_kcr() ? &shard.kcr() : nullptr,
                        &corpus.shard_global_ids(s)},
        corpus.dist_norm()));
  }
  return legs;
}

}  // namespace

ShardedWhyNotOracle::ShardedWhyNotOracle(const ShardedCorpus& corpus)
    : WhyNotOracle(ShardLegs(corpus), corpus.pool(), corpus.dist_norm(),
                   [&corpus](ObjectId id) -> const SpatialObject& {
                     return corpus.Object(id);
                   }) {}

}  // namespace yask
