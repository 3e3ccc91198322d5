#include "src/index/kcr_tree.h"

#include <gtest/gtest.h>

#include "src/storage/dataset_generator.h"

namespace yask {
namespace {

TEST(CountMapTest, AddDocCounts) {
  CountMap m;
  m.AddDoc(KeywordSet({1, 2}));
  m.AddDoc(KeywordSet({2, 3}));
  EXPECT_EQ(m.Get(1), 1u);
  EXPECT_EQ(m.Get(2), 2u);
  EXPECT_EQ(m.Get(3), 1u);
  EXPECT_EQ(m.Get(4), 0u);
  EXPECT_EQ(m.size(), 3u);
}

TEST(CountMapTest, MergeFromAddsPointwise) {
  CountMap a;
  a.AddDoc(KeywordSet({1, 2}));
  CountMap b;
  b.AddDoc(KeywordSet({2, 3}));
  b.AddDoc(KeywordSet({3}));
  a.MergeFrom(b);
  EXPECT_EQ(a.Get(1), 1u);
  EXPECT_EQ(a.Get(2), 2u);
  EXPECT_EQ(a.Get(3), 2u);
}

TEST(CountMapTest, TotalAndMaxSingleMatches) {
  CountMap m;
  m.AddDoc(KeywordSet({1, 2}));
  m.AddDoc(KeywordSet({1, 3}));
  m.AddDoc(KeywordSet({1}));
  const KeywordSet q({1, 2, 9});
  EXPECT_EQ(m.TotalMatches(q), 4u);      // count(1)=3 + count(2)=1.
  EXPECT_EQ(m.MaxSingleMatch(q), 3u);    // "1" appears in 3 docs.
  EXPECT_EQ(m.TotalMatches(KeywordSet({9})), 0u);
}

// Reconstruction of the paper's Fig. 2: R1 = {o1, o2, o3} with keywords
// Chinese x2, restaurant x3 and cnt = 3; R2 = {o4, o5} with Spanish x2,
// restaurant x2, cnt = 2; R3 merges to Chinese 2, Spanish 2, restaurant 5...
// (The figure's root counts restaurant 5 because it aggregates object counts
// of its subtree; with our two-node layout the root sees restaurant 3+2 = 5.)
TEST(KcSummaryTest, PaperFigureTwoExample) {
  Vocabulary vocab;
  const TermId chinese = vocab.Intern("chinese");
  const TermId spanish = vocab.Intern("spanish");
  const TermId restaurant = vocab.Intern("restaurant");

  auto obj = [&](std::vector<TermId> kw) {
    SpatialObject o;
    o.doc = KeywordSet(std::move(kw));
    return o;
  };
  KcSummary r1;
  r1.AddObject(obj({chinese, restaurant}));
  r1.AddObject(obj({chinese, restaurant}));
  r1.AddObject(obj({restaurant}));
  EXPECT_EQ(r1.cnt, 3u);
  EXPECT_EQ(r1.counts.Get(chinese), 2u);
  EXPECT_EQ(r1.counts.Get(restaurant), 3u);

  KcSummary r2;
  r2.AddObject(obj({spanish, restaurant}));
  r2.AddObject(obj({spanish, restaurant}));
  EXPECT_EQ(r2.cnt, 2u);
  EXPECT_EQ(r2.counts.Get(spanish), 2u);
  EXPECT_EQ(r2.counts.Get(restaurant), 2u);

  KcSummary r3 = r1;
  r3.Merge(r2);
  EXPECT_EQ(r3.cnt, 5u);
  EXPECT_EQ(r3.counts.Get(chinese), 2u);
  EXPECT_EQ(r3.counts.Get(spanish), 2u);
  EXPECT_EQ(r3.counts.Get(restaurant), 5u);
}

TEST(KcSummaryTest, DocLengthExtremes) {
  KcSummary s;
  SpatialObject a;
  a.doc = KeywordSet({1});
  SpatialObject b;
  b.doc = KeywordSet({1, 2, 3, 4});
  s.AddObject(a);
  EXPECT_EQ(s.min_doc_len, 1u);
  EXPECT_EQ(s.max_doc_len, 1u);
  s.AddObject(b);
  EXPECT_EQ(s.min_doc_len, 1u);
  EXPECT_EQ(s.max_doc_len, 4u);
}

ObjectStore MakeStore(size_t n, uint64_t seed = 42) {
  DatasetSpec spec;
  spec.num_objects = n;
  spec.seed = seed;
  spec.vocabulary_size = 40;
  spec.min_keywords = 2;
  spec.max_keywords = 7;
  return GenerateDataset(spec);
}

TEST(KcRTreeTest, BulkLoadValidates) {
  const ObjectStore store = MakeStore(2500);
  KcRTree tree(&store);
  tree.BulkLoad();
  Status s = tree.Validate();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(tree.node(tree.root()).summary.cnt, 2500u);
}

// The central contract for keyword adaption: BoundOutscoringCount must
// bracket the true tie-free count of outscoring objects in every node, for
// random queries and thresholds.
class KcrBoundProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KcrBoundProperty, CountBoundsBracketTruth) {
  const ObjectStore store = MakeStore(1200, GetParam());
  KcRTree tree(&store);
  tree.BulkLoad();
  Rng rng(GetParam() * 31 + 7);

  for (int trial = 0; trial < 25; ++trial) {
    Query q;
    q.loc = SampleQueryLocation(store, &rng);
    q.doc = SampleQueryKeywords(store, 1 + rng.NextBounded(4), &rng);
    q.k = 5;
    q.w = Weights::FromWs(rng.NextDouble(0.1, 0.9));
    Scorer scorer(store, q);
    // Use a real object's score as the threshold (mirrors the algorithm).
    const ObjectId target =
        static_cast<ObjectId>(rng.NextBounded(store.size()));
    const double threshold = scorer.Score(target);

    std::vector<KcRTree::NodeId> stack{tree.root()};
    while (!stack.empty()) {
      const auto& node = tree.node(stack.back());
      stack.pop_back();
      const CountBounds b =
          BoundOutscoringCount(scorer, node.rect, node.summary, threshold);
      EXPECT_LE(b.lower, b.upper);
      EXPECT_LE(b.upper, node.summary.cnt);

      // True count of strictly-outscoring objects under the node, by walking
      // the subtree.
      size_t truth = 0;
      std::vector<const KcRTree::Node*> walk{&node};
      while (!walk.empty()) {
        const KcRTree::Node* n = walk.back();
        walk.pop_back();
        if (n->is_leaf) {
          for (const auto& e : n->entries) {
            if (scorer.Score(e.id) > threshold) ++truth;
          }
        } else {
          for (const auto& e : n->entries) walk.push_back(&tree.node(e.id));
        }
      }
      EXPECT_LE(b.lower, truth)
          << "lower bound overshoots true count " << truth;
      EXPECT_GE(b.upper, truth)
          << "upper bound undershoots true count " << truth;

      if (!node.is_leaf) {
        for (const auto& e : node.entries) stack.push_back(e.id);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KcrBoundProperty, ::testing::Values(2, 9, 77));

TEST(KcrBoundTest, EmptyNodeGivesZeroBounds) {
  ObjectStore store;
  store.mutable_vocab()->Intern("x");
  store.Add(Point{0.5, 0.5}, KeywordSet({0}));
  Query q;
  q.loc = Point{0, 0};
  q.doc = KeywordSet({0});
  q.k = 1;
  Scorer scorer(store, q);
  KcSummary empty;
  const CountBounds b = BoundOutscoringCount(
      scorer, Rect::FromPoint(Point{0.5, 0.5}), empty, 0.1);
  EXPECT_EQ(b.lower, 0u);
  EXPECT_EQ(b.upper, 0u);
}

TEST(KcrBoundTest, ImpossibleThresholdGivesZeroUpper) {
  ObjectStore store;
  store.mutable_vocab()->Intern("x");
  for (int i = 0; i < 10; ++i) {
    store.Add(Point{0.5, 0.5}, KeywordSet({0}));
  }
  KcRTree tree(&store);
  tree.BulkLoad();
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0});
  q.k = 1;
  Scorer scorer(store, q);
  const auto& root = tree.node(tree.root());
  // Threshold above the maximum possible score (ws + wt = 1).
  const CountBounds b =
      BoundOutscoringCount(scorer, root.rect, root.summary, 1.5);
  EXPECT_EQ(b.upper, 0u);
}

TEST(KcrBoundTest, TrivialThresholdCountsEverything) {
  ObjectStore store;
  store.mutable_vocab()->Intern("x");
  for (int i = 0; i < 10; ++i) {
    store.Add(Point{0.5, 0.5}, KeywordSet({0}));
  }
  KcRTree tree(&store);
  tree.BulkLoad();
  Query q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet({0});
  q.k = 1;
  Scorer scorer(store, q);
  const auto& root = tree.node(tree.root());
  // Every object scores ws*1 + wt*1 = 1 > 0.5: all must outscore.
  const CountBounds b =
      BoundOutscoringCount(scorer, root.rect, root.summary, 0.5);
  EXPECT_EQ(b.lower, 10u);
  EXPECT_EQ(b.upper, 10u);
}

}  // namespace
}  // namespace yask
