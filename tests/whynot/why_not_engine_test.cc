#include "src/whynot/why_not_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/corpus/corpus.h"
#include "src/storage/dataset_generator.h"
#include "src/storage/hotel_generator.h"

namespace yask {
namespace {

/// The demo's own dataset drives the end-to-end engine tests.
class WhyNotEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new Corpus(CorpusBuilder().Build(GenerateHotelDataset()));
    store_ = &corpus_->store();
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
    store_ = nullptr;
  }

  /// A Carol-style query: hotels near Central described as clean+comfortable.
  Query CarolQuery() const {
    Query q;
    q.loc = Point{114.158, 22.281};  // Conference venue in Central.
    const Vocabulary& v = store_->vocab();
    q.doc = KeywordSet({v.Find("clean"), v.Find("comfortable")});
    q.k = 3;
    return q;
  }

  static const Corpus* corpus_;
  static const ObjectStore* store_;
};

const Corpus* WhyNotEngineTest::corpus_ = nullptr;
const ObjectStore* WhyNotEngineTest::store_ = nullptr;

TEST_F(WhyNotEngineTest, TopKReturnsKHotels) {
  WhyNotEngine engine(*corpus_);
  const TopKResult r = engine.TopK(CarolQuery());
  EXPECT_EQ(r.size(), 3u);
}

TEST_F(WhyNotEngineTest, AnswerRunsBothModelsAndRecommends) {
  WhyNotEngine engine(*corpus_);
  const Query q = CarolQuery();
  // Pick a hotel outside the top-3 as Carol's expected hotel.
  Query probe = q;
  probe.k = 30;
  const TopKResult wide = engine.TopK(probe);
  const ObjectId expected = wide[10].id;

  auto answer = engine.Answer(q, {expected});
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  const WhyNotAnswer& a = answer.value();
  ASSERT_EQ(a.explanations.size(), 1u);
  EXPECT_GT(a.explanations[0].rank, q.k);
  ASSERT_TRUE(a.preference.has_value());
  ASSERT_TRUE(a.keyword.has_value());
  EXPECT_NE(a.recommended, RefinementModel::kNone);

  // The recommendation matches the cheaper penalty (ties -> preference).
  if (a.preference->penalty.value <= a.keyword->penalty.value) {
    EXPECT_EQ(a.recommended, RefinementModel::kPreference);
  } else {
    EXPECT_EQ(a.recommended, RefinementModel::kKeyword);
  }

  // The displayed refined result revives the expected hotel.
  std::set<ObjectId> ids;
  for (const ScoredObject& so : a.refined_result) ids.insert(so.id);
  EXPECT_TRUE(ids.count(expected));
}

TEST_F(WhyNotEngineTest, SingleModelModes) {
  WhyNotEngine engine(*corpus_);
  const Query q = CarolQuery();
  Query probe = q;
  probe.k = 20;
  const ObjectId expected = engine.TopK(probe)[15].id;

  WhyNotOptions pref_only;
  pref_only.run_keyword_adaption = false;
  auto a = engine.Answer(q, {expected}, pref_only);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->preference.has_value());
  EXPECT_FALSE(a->keyword.has_value());
  EXPECT_EQ(a->recommended, RefinementModel::kPreference);

  WhyNotOptions kw_only;
  kw_only.run_preference_adjustment = false;
  auto b = engine.Answer(q, {expected}, kw_only);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->preference.has_value());
  EXPECT_TRUE(b->keyword.has_value());
  EXPECT_EQ(b->recommended, RefinementModel::kKeyword);
}

TEST_F(WhyNotEngineTest, ObjectAlreadyInResult) {
  WhyNotEngine engine(*corpus_);
  const Query q = CarolQuery();
  const ObjectId in_result = engine.TopK(q)[0].id;
  auto a = engine.Answer(q, {in_result});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->recommended, RefinementModel::kNone);
  EXPECT_EQ(a->explanations[0].reason, MissingReason::kInResult);
}

TEST_F(WhyNotEngineTest, MultipleMissingHotels) {
  WhyNotEngine engine(*corpus_);
  const Query q = CarolQuery();
  Query probe = q;
  probe.k = 40;
  const TopKResult wide = engine.TopK(probe);
  const std::vector<ObjectId> missing{wide[8].id, wide[20].id};

  auto answer = engine.Answer(q, missing);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->explanations.size(), 2u);
  std::set<ObjectId> ids;
  for (const ScoredObject& so : answer->refined_result) ids.insert(so.id);
  for (ObjectId m : missing) EXPECT_TRUE(ids.count(m));
}

TEST_F(WhyNotEngineTest, LambdaShiftsRefinementStyle) {
  WhyNotEngine engine(*corpus_);
  const Query q = CarolQuery();
  Query probe = q;
  probe.k = 30;
  const ObjectId expected = engine.TopK(probe)[25].id;

  WhyNotOptions low_lambda;   // Cheap k-changes are penalised less.
  low_lambda.lambda = 0.1;
  WhyNotOptions high_lambda;  // k-changes are expensive.
  high_lambda.lambda = 0.9;
  auto lo = engine.Answer(q, {expected}, low_lambda);
  auto hi = engine.Answer(q, {expected}, high_lambda);
  ASSERT_TRUE(lo.ok());
  ASSERT_TRUE(hi.ok());
  // With λ=0.1 the ∆k route is cheap: k grows a lot, w/doc changes little.
  // With λ=0.9 the optimiser works harder on w/doc modifications.
  EXPECT_GE(lo->preference->refined.k, hi->preference->refined.k);
}

TEST_F(WhyNotEngineTest, CombinedRefinementRevivesAndReportsBothPenalties) {
  WhyNotEngine engine(*corpus_);
  const Query q = CarolQuery();
  Query probe = q;
  probe.k = 30;
  const TopKResult wide = engine.TopK(probe);
  const std::vector<ObjectId> missing{wide[12].id, wide[22].id};

  auto combined = engine.CombineRefinements(q, missing);
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();
  // Final query revives all missing objects.
  std::set<ObjectId> ids;
  for (const ScoredObject& so : engine.TopK(combined->refined)) {
    ids.insert(so.id);
  }
  for (ObjectId m : missing) EXPECT_TRUE(ids.count(m)) << m;
  // Total is the sum of the step penalties.
  EXPECT_DOUBLE_EQ(combined->total_penalty,
                   combined->preference_penalty.value +
                       combined->keyword_penalty.value);
  EXPECT_GE(combined->total_penalty, 0.0);
  EXPECT_LE(combined->total_penalty, 2.0);
  EXPECT_GT(combined->original_rank, q.k);
}

TEST_F(WhyNotEngineTest, CombinedPicksTheCheaperOrder) {
  WhyNotEngine engine(*corpus_);
  const Query q = CarolQuery();
  Query probe = q;
  probe.k = 25;
  const ObjectId expected = engine.TopK(probe)[18].id;

  auto combined = engine.CombineRefinements(q, {expected});
  ASSERT_TRUE(combined.ok());
  // Recompute both orders by hand and verify the reported one is minimal.
  PreferenceAdjustOptions po;
  KeywordAdaptOptions ko;
  const WhyNotOracle& oracle = engine.oracle();
  auto pref_a = AdjustPreference(oracle, q, {expected}, po);
  ASSERT_TRUE(pref_a.ok());
  auto kw_a = AdaptKeywords(oracle, pref_a->refined, {expected}, ko);
  ASSERT_TRUE(kw_a.ok());
  const double total_a = pref_a->penalty.value + kw_a->penalty.value;
  auto kw_b = AdaptKeywords(oracle, q, {expected}, ko);
  ASSERT_TRUE(kw_b.ok());
  auto pref_b = AdjustPreference(oracle, kw_b->refined, {expected}, po);
  ASSERT_TRUE(pref_b.ok());
  const double total_b = kw_b->penalty.value + pref_b->penalty.value;
  EXPECT_DOUBLE_EQ(combined->total_penalty, std::min(total_a, total_b));
  EXPECT_EQ(combined->preference_first, total_a <= total_b);
}

TEST_F(WhyNotEngineTest, CombinedOnInResultObjectIsFree) {
  WhyNotEngine engine(*corpus_);
  const Query q = CarolQuery();
  const ObjectId in_result = engine.TopK(q)[0].id;
  auto combined = engine.CombineRefinements(q, {in_result});
  ASSERT_TRUE(combined.ok());
  EXPECT_DOUBLE_EQ(combined->total_penalty, 0.0);
  EXPECT_EQ(combined->refined.doc, q.doc);
  EXPECT_EQ(combined->refined.w, q.w);
}

TEST_F(WhyNotEngineTest, ErrorsPropagate) {
  WhyNotEngine engine(*corpus_);
  const Query q = CarolQuery();
  EXPECT_FALSE(engine.Answer(q, {}).ok());
  EXPECT_FALSE(engine.Answer(q, {9999999}).ok());
}

// Regression: keyword adaption over a corpus built without its KcR-tree used
// to dereference the missing tree (a segfault once NDEBUG compiled out the
// only assert). It must answer FailedPrecondition; the preference model,
// which needs no KcR-tree, keeps working on the same corpus.
TEST(WhyNotEngineNoKcrTest, KeywordAdaptionWithoutKcrTreeIsAnError) {
  DatasetSpec spec;
  spec.num_objects = 2000;
  CorpusOptions options;
  options.build_kcr_tree = false;
  const Corpus corpus = CorpusBuilder(options).Build(GenerateDataset(spec));
  ASSERT_FALSE(corpus.has_kcr());
  const WhyNotEngine engine(corpus);

  Query q;
  q.loc = corpus.store().Get(0).loc;
  q.doc = corpus.store().Get(0).doc;
  q.k = 5;
  Query wide = q;
  wide.k = 50;
  const ObjectId missing = engine.TopK(wide).back().id;

  auto answer = engine.Answer(q, {missing});
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kFailedPrecondition)
      << answer.status().ToString();

  WhyNotOptions preference_only;
  preference_only.run_keyword_adaption = false;
  auto pref = engine.Answer(q, {missing}, preference_only);
  ASSERT_TRUE(pref.ok()) << pref.status().ToString();
  EXPECT_TRUE(pref->preference.has_value());
}

}  // namespace
}  // namespace yask
