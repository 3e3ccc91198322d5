#include "src/index/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/storage/dataset_generator.h"

namespace yask {
namespace {

ObjectStore MakeStore(size_t n, uint64_t seed = 42,
                      SpatialDistribution dist = SpatialDistribution::kUniform) {
  DatasetSpec spec;
  spec.num_objects = n;
  spec.seed = seed;
  spec.spatial = dist;
  spec.vocabulary_size = 50;
  return GenerateDataset(spec);
}

std::set<ObjectId> BruteRange(const ObjectStore& store, const Rect& range) {
  std::set<ObjectId> out;
  for (const SpatialObject& o : store.objects()) {
    if (range.Contains(o.loc)) out.insert(o.id);
  }
  return out;
}

std::set<ObjectId> TreeRange(const RTree& tree, const Rect& range) {
  std::set<ObjectId> out;
  tree.RangeQuery(range, [&](ObjectId id) { out.insert(id); });
  return out;
}

TEST(RTreeTest, EmptyTree) {
  ObjectStore store;
  RTree tree(&store);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_TRUE(tree.Validate().ok());
  size_t hits = 0;
  tree.RangeQuery(Rect::FromBounds(0, 0, 1, 1), [&](ObjectId) { ++hits; });
  EXPECT_EQ(hits, 0u);
}

TEST(RTreeTest, BulkLoadSmall) {
  const ObjectStore store = MakeStore(10);
  RTree tree(&store);
  tree.BulkLoad();
  EXPECT_EQ(tree.size(), 10u);
  EXPECT_EQ(tree.height(), 1u);  // Fits one leaf with fanout 32.
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
}

TEST(RTreeTest, BulkLoadValidatesAcrossSizes) {
  for (size_t n : {0u, 1u, 31u, 32u, 33u, 100u, 1000u, 5000u}) {
    const ObjectStore store = MakeStore(n);
    RTree tree(&store);
    tree.BulkLoad();
    EXPECT_EQ(tree.size(), n);
    Status s = tree.Validate();
    EXPECT_TRUE(s.ok()) << "n=" << n << ": " << s.ToString();
  }
}

TEST(RTreeTest, BulkLoadHeightGrowsLogarithmically) {
  const ObjectStore store = MakeStore(5000);
  RTree tree(&store);
  tree.BulkLoad();
  EXPECT_GE(tree.height(), 2u);
  EXPECT_LE(tree.height(), 4u);
}

TEST(RTreeTest, RangeQueryMatchesBruteForceAfterBulkLoad) {
  const ObjectStore store = MakeStore(3000, 7, SpatialDistribution::kClustered);
  RTree tree(&store);
  tree.BulkLoad();
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const double x = rng.NextDouble();
    const double y = rng.NextDouble();
    const Rect range = Rect::FromBounds(
        x, y, std::min(1.0, x + rng.NextDouble(0, 0.3)),
        std::min(1.0, y + rng.NextDouble(0, 0.3)));
    EXPECT_EQ(TreeRange(tree, range), BruteRange(store, range));
  }
}

TEST(RTreeTest, TraverseVisitsEverythingWhenUnfiltered) {
  const ObjectStore store = MakeStore(800, 13);
  RTree tree(&store);
  tree.BulkLoad();
  size_t count = 0;
  tree.Traverse([](const RTree::Node&) { return true; },
                [&](ObjectId) { ++count; });
  EXPECT_EQ(count, 800u);
}

TEST(RTreeTest, TraversePruningByRect) {
  const ObjectStore store = MakeStore(800, 17);
  RTree tree(&store);
  tree.BulkLoad();
  const Rect range = Rect::FromBounds(0.2, 0.2, 0.5, 0.5);
  std::set<ObjectId> got;
  tree.Traverse(
      [&](const RTree::Node& n) { return n.rect.Intersects(range); },
      [&](ObjectId id) {
        if (range.Contains(store.Get(id).loc)) got.insert(id);
      });
  EXPECT_EQ(got, BruteRange(store, range));
}

TEST(RTreeTest, MemoryUsageGrowsWithSize) {
  const ObjectStore small = MakeStore(100);
  const ObjectStore large = MakeStore(5000);
  RTree t1(&small);
  t1.BulkLoad();
  RTree t2(&large);
  t2.BulkLoad();
  EXPECT_GT(t2.MemoryUsageBytes(), t1.MemoryUsageBytes());
}

TEST(RTreeTest, CustomFanoutRespected) {
  const ObjectStore store = MakeStore(500);
  RTreeOptions opts;
  opts.max_entries = 8;
  opts.min_entries = 3;
  RTree tree(&store, opts);
  tree.BulkLoad();
  EXPECT_TRUE(tree.Validate().ok());
  EXPECT_GE(tree.height(), 3u);  // Smaller fanout means a taller tree.
}

}  // namespace
}  // namespace yask
