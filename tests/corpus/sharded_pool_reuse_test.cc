// The fan-out worker pool is owned by the ShardedCorpus and SHARED by every
// oracle over it (/query and /whynot alike): each ShardedWhyNotOracle must
// borrow the corpus's pool instead of spinning up its own — one pool per
// serving corpus, however many oracles the server wires up.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "src/corpus/sharded_corpus.h"
#include "src/corpus/sharded_whynot_oracle.h"
#include "src/storage/dataset_generator.h"
#include "src/whynot/why_not_engine.h"

namespace yask {
namespace {

ObjectStore MakeStore() {
  DatasetSpec spec;
  spec.num_objects = 400;
  spec.vocabulary_size = 40;
  spec.min_keywords = 2;
  spec.max_keywords = 4;
  spec.seed = 99;
  return GenerateDataset(spec);
}

TEST(ShardedPoolReuseTest, EnginesShareTheCorpusPool) {
  const ObjectStore store = MakeStore();
  CorpusOptions options;
  options.fanout_threads = 2;  // Force a pool even on a single-core host.
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 4), options);
  ASSERT_NE(sharded.pool(), nullptr);
  EXPECT_EQ(sharded.pool()->num_threads(), 2u);

  const ShardedWhyNotOracle oracle(sharded);
  EXPECT_EQ(oracle.pool(), sharded.pool());

  // A second oracle still shares the same pool (no per-oracle pools).
  const ShardedWhyNotOracle oracle2(sharded);
  EXPECT_EQ(oracle2.pool(), sharded.pool());

  // Top-k and why-not both actually work over the shared pool.
  Rng rng(5);
  Query q;
  q.loc = SampleQueryLocation(store, &rng);
  q.doc = SampleQueryKeywords(store, 2, &rng);
  q.k = 5;
  const TopKResult result = oracle.TopK(q);
  EXPECT_EQ(result.size(), 5u);
  const WhyNotEngine engine(sharded);
  auto answer = engine.Answer(q, {result.back().id});
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
}

TEST(ShardedPoolReuseTest, ForcedThreadCountClampsToShardCount) {
  // A fan-out submits at most one task per shard; extra workers would be
  // dead weight (stacks + context switches for zero parallelism).
  const ObjectStore store = MakeStore();
  CorpusOptions options;
  options.fanout_threads = 64;
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 4), options);
  ASSERT_NE(sharded.pool(), nullptr);
  EXPECT_EQ(sharded.pool()->num_threads(), 4u);
}

TEST(ShardedPoolReuseTest, SingleShardCorpusHasNoPool) {
  const ObjectStore store = MakeStore();
  CorpusOptions options;
  options.fanout_threads = 4;  // Even a forced count: one shard, no fan-out.
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 1), options);
  EXPECT_EQ(sharded.pool(), nullptr);
  const ShardedWhyNotOracle oracle(sharded);
  EXPECT_EQ(oracle.pool(), nullptr);
}

TEST(ShardedPoolReuseTest, AutoSizingFollowsTheHost) {
  const ObjectStore store = MakeStore();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 4));
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  if (hw <= 1) {
    // Single-core host: inline fan-out beats a pool; none is created.
    EXPECT_EQ(sharded.pool(), nullptr);
  } else {
    ASSERT_NE(sharded.pool(), nullptr);
    EXPECT_LE(sharded.pool()->num_threads(), std::min<size_t>(4, hw));
  }
  // Whatever the host decided, the oracle borrows exactly that.
  const ShardedWhyNotOracle oracle(sharded);
  EXPECT_EQ(oracle.pool(), sharded.pool());
}

TEST(ShardedPoolReuseTest, LoadedCorpusOwnsAPoolToo) {
  const ObjectStore store = MakeStore();
  CorpusOptions options;
  options.fanout_threads = 2;
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 3), options);
  const std::string prefix =
      ::testing::TempDir() + "sharded_pool_reuse_test";
  ASSERT_TRUE(sharded.Save(prefix).ok());

  auto loaded = ShardedCorpus::Load(prefix, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded->pool(), nullptr);
  EXPECT_EQ(loaded->pool()->num_threads(), 2u);
  const ShardedWhyNotOracle oracle(*loaded);
  EXPECT_EQ(oracle.pool(), loaded->pool());
  for (uint32_t s = 0; s < 3; ++s) {
    std::remove(ShardedCorpus::ShardFilePath(prefix, s).c_str());
  }
}

}  // namespace
}  // namespace yask
