// Reshard round-trip property test: for every (N, M) in {1,2,4} x {1,2,4}
// and both routers, `ReshardSnapshots` rewriting N per-shard snapshot files
// into M must produce a layout whose answers are BYTE-identical to the
// single-store reference — same top-k ids in the same order with scores that
// compare equal with ==, and identical why-not refinements. This is the
// safety gate of `dataset_tool reshard`: the elastic-fleet runbook
// (docs/operations.md) promises a cutover to a resharded fleet is invisible
// to clients, which only holds if resharding preserves the exactness
// contract (global-id order, bounds accumulation order, vocabulary ids).
//
// Also covers the operational failure modes: refusing in-place resharding,
// unknown routers, and the manifest cross-validation that keeps a MIXED
// layout (some files from the old partition, some from the new) from ever
// being served.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/reshard.h"
#include "src/corpus/sharded_corpus.h"
#include "src/corpus/sharded_whynot_oracle.h"
#include "src/query/topk_engine.h"
#include "src/storage/dataset_generator.h"
#include "src/whynot/preference_adjustment.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace {

ObjectStore TestStore() {
  DatasetSpec spec;
  spec.num_objects = 700;
  spec.vocabulary_size = 60;
  spec.min_keywords = 2;
  spec.max_keywords = 5;
  spec.seed = 977;
  return GenerateDataset(spec);
}

/// Writes an N-shard layout of `store` under a fresh prefix and returns it.
std::string SeedLayout(const ObjectStore& store, uint32_t shards,
                       const std::string& tag) {
  const std::string prefix = ::testing::TempDir() + "reshard_" + tag;
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, shards));
  EXPECT_TRUE(sharded.Save(prefix).ok());
  return prefix;
}

void ExpectBitIdentical(const TopKResult& actual, const TopKResult& expected,
                        const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << label << " rank " << i;
    // Bit-identity, not near-equality: the resharded layout must run the
    // exact same floating-point arithmetic as the single store.
    EXPECT_EQ(actual[i].score, expected[i].score) << label << " rank " << i;
  }
}

TEST(ReshardPropertyTest, RoundTripAnswersStayByteIdentical) {
  const ObjectStore store = TestStore();
  const Corpus baseline = CorpusBuilder().Build(ObjectStore(store));
  const SetRTopKEngine& reference = baseline.topk();
  const LocalWhyNotOracle local_oracle(baseline);

  for (const uint32_t from : {1u, 2u, 4u}) {
    const std::string in_prefix =
        SeedLayout(store, from, "in_" + std::to_string(from));
    for (const uint32_t to : {1u, 2u, 4u}) {
      for (const std::string router : {"grid", "hash"}) {
        const std::string label = std::to_string(from) + "->" +
                                  std::to_string(to) + " " + router;
        const std::string out_prefix = ::testing::TempDir() + "reshard_out_" +
                                       std::to_string(from) + "_" +
                                       std::to_string(to) + "_" + router;
        ReshardOptions options;
        options.num_shards = to;
        options.router = router;
        auto report = ReshardSnapshots(in_prefix, out_prefix, options);
        ASSERT_TRUE(report.ok()) << label << ": "
                                 << report.status().ToString();
        EXPECT_EQ(report->from_shards, from) << label;
        EXPECT_EQ(report->to_shards, to) << label;
        EXPECT_EQ(report->objects, store.size()) << label;

        auto loaded = ShardedCorpus::Load(out_prefix);
        ASSERT_TRUE(loaded.ok()) << label << ": "
                                 << loaded.status().ToString();
        const ShardedCorpus& resharded = *loaded;
        ASSERT_EQ(resharded.num_shards(), to) << label;
        ASSERT_EQ(resharded.size(), store.size()) << label;
        // The exactness preconditions: identical global frame and identical
        // objects under identical global ids.
        EXPECT_EQ(resharded.bounds().min_x, store.bounds().min_x) << label;
        EXPECT_EQ(resharded.bounds().max_x, store.bounds().max_x) << label;
        EXPECT_EQ(resharded.bounds().min_y, store.bounds().min_y) << label;
        EXPECT_EQ(resharded.bounds().max_y, store.bounds().max_y) << label;
        for (ObjectId id = 0; id < store.size(); id += 97) {
          EXPECT_EQ(resharded.Object(id).name, store.Get(id).name)
              << label << " id " << id;
          EXPECT_EQ(resharded.Object(id).loc.x, store.Get(id).loc.x)
              << label << " id " << id;
        }

        const ShardedWhyNotOracle oracle(resharded);
        Rng rng(1139);
        for (int trial = 0; trial < 6; ++trial) {
          Query q;
          q.loc = SampleQueryLocation(store, &rng);
          q.doc = SampleQueryKeywords(store, 1 + trial % 3, &rng);
          q.k = 3 + static_cast<uint32_t>(rng.NextBounded(8));
          const std::string trial_label =
              label + " trial " + std::to_string(trial);
          const TopKResult expected = reference.Query(q);
          ExpectBitIdentical(oracle.TopK(q), expected, trial_label);

          // Why-not refinement through the resharded layout: pick an object
          // ranked just outside the top-k and compare the full refinement.
          Query probe = q;
          probe.k = q.k + 4;
          const TopKResult wide = reference.Query(probe);
          if (wide.size() <= q.k + 1) continue;
          const std::vector<ObjectId> missing = {wide[q.k + 1].id};
          auto expected_ref = AdjustPreference(local_oracle, q, missing);
          auto actual_ref = AdjustPreference(oracle, q, missing);
          ASSERT_TRUE(expected_ref.ok()) << trial_label;
          ASSERT_TRUE(actual_ref.ok()) << trial_label;
          EXPECT_EQ(actual_ref->refined.w.ws, expected_ref->refined.w.ws)
              << trial_label;
          EXPECT_EQ(actual_ref->refined.k, expected_ref->refined.k)
              << trial_label;
          EXPECT_EQ(actual_ref->penalty.value, expected_ref->penalty.value)
              << trial_label;
        }
      }
    }
  }
}

TEST(ReshardPropertyTest, RefusesInPlaceReshard) {
  const ObjectStore store = TestStore();
  const std::string prefix = SeedLayout(store, 2, "inplace");
  ReshardOptions options;
  options.num_shards = 4;
  auto report = ReshardSnapshots(prefix, prefix, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReshardPropertyTest, RejectsUnknownRouter) {
  const ObjectStore store = TestStore();
  const std::string prefix = SeedLayout(store, 1, "router");
  ReshardOptions options;
  options.num_shards = 2;
  options.router = "zorder";
  auto report =
      ReshardSnapshots(prefix, ::testing::TempDir() + "reshard_bad", options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReshardPropertyTest, MixedLayoutCanNeverBeServed) {
  // The scenario the manifest cross-validation exists for: an operator
  // reshards 2 -> 4 but copies only SOME of the new files over the old
  // prefix. Loading the half-migrated directory must fail, not serve a
  // corpus with duplicated or missing objects.
  const ObjectStore store = TestStore();
  const std::string old_prefix = SeedLayout(store, 2, "mixed_old");
  const std::string new_prefix = ::testing::TempDir() + "reshard_mixed_new";
  ReshardOptions options;
  options.num_shards = 4;
  ASSERT_TRUE(ReshardSnapshots(old_prefix, new_prefix, options).ok());

  // Overwrite shard 0 of the old layout with shard 0 of the new one.
  const std::string src = ShardedCorpus::ShardFilePath(new_prefix, 0);
  const std::string dst = ShardedCorpus::ShardFilePath(old_prefix, 0);
  std::FILE* in = std::fopen(src.c_str(), "rb");
  std::FILE* out = std::fopen(dst.c_str(), "wb");
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof buf, in)) > 0;) {
    ASSERT_EQ(std::fwrite(buf, 1, n, out), n);
  }
  std::fclose(in);
  std::fclose(out);

  auto loaded = ShardedCorpus::Load(old_prefix);
  ASSERT_FALSE(loaded.ok())
      << "a mixed 2-shard/4-shard layout must not load";
}

}  // namespace
}  // namespace yask
