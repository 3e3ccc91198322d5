#include "src/whynot/whynot_oracle.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/timer.h"
#include "src/common/trace.h"
#include "src/corpus/corpus.h"

namespace yask {

namespace {

constexpr double kNoPrune = -std::numeric_limits<double>::infinity();

/// Sums per-leg vectors elementwise into the first one (the partition-sum
/// merge of every count primitive).
std::vector<size_t> SumLegs(std::vector<std::vector<size_t>> parts) {
  std::vector<size_t> total = std::move(parts[0]);
  for (size_t l = 1; l < parts.size(); ++l) {
    for (size_t i = 0; i < total.size(); ++i) total[i] += parts[l][i];
  }
  return total;
}

}  // namespace

// --- Score-plane session -----------------------------------------------------

ScorePlaneSession::ScorePlaneSession(const WhyNotOracle& oracle,
                                     const Query& query, PrefAdjustMode mode)
    : oracle_(&oracle),
      query_(&query),
      optimized_(mode == PrefAdjustMode::kOptimized) {
  planes_.resize(oracle.legs_.size());
  oracle.ForLegs(oracle.all_legs_, [&](size_t l) {
    planes_[l] = oracle.legs_[l]->OpenPlane(*query_, optimized_);
  });
}

PlanePoint ScorePlaneSession::Anchor(ObjectId global_id) const {
  // Computed from the object with the exact arithmetic BuildPlanePoints
  // uses, so the anchor is the same point in every layout.
  const ObjectScoreParts parts = ScorePartsOf(*query_, oracle_->dist_norm(),
                                              oracle_->Object(global_id));
  return PlanePoint{1.0 - parts.sdist, parts.tsim, global_id};
}

std::vector<size_t> ScorePlaneSession::CountAboveBatch(
    const std::vector<double>& weights, const std::vector<PlanePoint>& anchors,
    PreferenceAdjustStats* stats) const {
  const size_t n = planes_.size();
  const size_t pairs = weights.size() * anchors.size();
  std::vector<std::vector<size_t>> counts(n, std::vector<size_t>(pairs, 0));
  std::vector<size_t> nodes(n, 0);
  oracle_->ForLegs(oracle_->all_legs_, [&](size_t l) {
    planes_[l]->CountBatch(weights, anchors, &counts[l], &nodes[l]);
  });
  for (const size_t v : nodes) stats->index_nodes_visited += v;
  // One logical dataset rescan per (weight, anchor) pair in basic mode.
  if (!optimized_) stats->full_rescans += pairs;
  return SumLegs(std::move(counts));
}

void ScorePlaneSession::CollectCrossings(const PlanePoint& anchor, double wlo,
                                         double whi,
                                         std::vector<double>* events,
                                         PreferenceAdjustStats* stats) const {
  const size_t n = planes_.size();
  std::vector<std::vector<double>> parts(n);
  std::vector<size_t> nodes(n, 0);
  oracle_->ForLegs(oracle_->all_legs_, [&](size_t l) {
    planes_[l]->Crossings(anchor, wlo, whi, &parts[l], &nodes[l]);
  });
  // Union in leg order; the caller sorts + deduplicates the merged set, so
  // the final event sequence is layout-independent.
  for (size_t l = 0; l < n; ++l) {
    events->insert(events->end(), parts[l].begin(), parts[l].end());
    stats->index_nodes_visited += nodes[l];
  }
}

size_t ScorePlaneSession::PreferredSweepBatch() const {
  // The slowest leg gates every fan-out, so IT sets how much a saved
  // round-trip is worth; one leg that gains nothing from speculation (in
  // process, or a shard without the batch route) makes it pointless.
  size_t batch = 1;
  for (const auto& plane : planes_) {
    const size_t b = plane->PreferredSweepBatch();
    if (b <= 1) return 1;
    batch = std::max(batch, b);
  }
  return batch;
}

// --- Rank-probe batch --------------------------------------------------------

RankProbeBatch::RankProbeBatch(const WhyNotOracle& oracle,
                               const std::vector<OracleTargetSpec>& specs,
                               KeywordAdaptStats* stats)
    : oracle_(&oracle), stats_(stats), size_(specs.size()) {
  const std::vector<double> target_scores = oracle.TargetScores(specs);
  probes_.resize(oracle.legs_.size());
  oracle.ForLegs(oracle.all_legs_, [&](size_t l) {
    probes_[l] = oracle.legs_[l]->OpenProbes(specs, target_scores);
  });
}

RankProbeBatch::~RankProbeBatch() {
  for (const auto& probes : probes_) {
    stats_->kcr_nodes_expanded += probes->work().kcr_nodes_expanded;
    stats_->objects_scored += probes->work().objects_scored;
  }
}

size_t RankProbeBatch::lower(size_t i) const {
  size_t sum = 0;
  for (const auto& probes : probes_) sum += probes->count_lower(i);
  return sum + 1;
}

size_t RankProbeBatch::upper(size_t i) const {
  size_t sum = 0;
  for (const auto& probes : probes_) sum += probes->count_upper(i);
  return sum + 1;
}

bool RankProbeBatch::resolved(size_t i) const {
  for (const auto& probes : probes_) {
    if (!probes->resolved(i)) return false;
  }
  return true;
}

void RankProbeBatch::RefineLevel(const std::vector<size_t>& members) {
  // Only the legs with an open frontier for at least one listed member do
  // work; dispatching the rest would spend pool scheduling (or a round-trip)
  // on no-ops in the hottest /whynot loop.
  std::vector<size_t> active;
  for (size_t l = 0; l < probes_.size(); ++l) {
    for (const size_t m : members) {
      if (!probes_[l]->resolved(m)) {
        active.push_back(l);
        break;
      }
    }
  }
  oracle_->ForLegs(active, [&](size_t l) { probes_[l]->Refine(members); });
}

// --- WhyNotOracle ------------------------------------------------------------

WhyNotOracle::WhyNotOracle(std::vector<std::unique_ptr<ShardLeg>> legs,
                           ThreadPool* pool, double dist_norm,
                           ObjectLookup object)
    : legs_(std::move(legs)),
      pool_(pool),
      dist_norm_(dist_norm),
      object_(std::move(object)) {
  for (size_t l = 0; l < legs_.size(); ++l) {
    all_legs_.push_back(l);
    size_ += legs_[l]->size();
  }
}

WhyNotOracle::~WhyNotOracle() = default;

bool WhyNotOracle::has_kcr() const {
  for (const auto& leg : legs_) {
    if (!leg->has_kcr()) return false;
  }
  return true;
}

void WhyNotOracle::ForLegs(const std::vector<size_t>& legs,
                           const std::function<void(size_t)>& fn) const {
  FanOut(pool_, legs.size(), [&](size_t i) {
    const size_t l = legs[i];
    if (shard_busy_ms_ == nullptr) {
      fn(l);
      return;
    }
    Timer timer;
    fn(l);
    (*shard_busy_ms_)[l] += timer.ElapsedMillis();
  });
}

TopKResult WhyNotOracle::TopK(const Query& query, TopKStats* stats) const {
  if (query.k == 0) return {};
  const size_t n = legs_.size();
  TopKStats unused;
  if (stats == nullptr) stats = &unused;
  if (n == 1) return legs_[0]->TopK(query, kNoPrune, stats);

  // Phase 1: search the query's home leg — the one whose SetR root MBR is
  // nearest the query point — to completion. Its k-th score then bounds
  // what any other leg must beat (the classic distributed-top-k threshold
  // broadcast): far legs usually stop at their root, so the fan-out costs
  // roughly one small-tree search per query instead of N.
  std::vector<double> distance(n, std::numeric_limits<double>::infinity());
  size_t home = 0;
  for (size_t l = 0; l < n; ++l) {
    if (const std::optional<Rect> mbr = legs_[l]->root_mbr()) {
      distance[l] = mbr->MinDistance(query.loc);
    }
    if (distance[l] < distance[home]) home = l;
  }
  std::vector<TopKResult> parts(n);
  std::vector<TopKStats> part_stats(n);
  parts[home] = legs_[home]->TopK(query, kNoPrune, &part_stats[home]);

  // Scores are bit-identical across layouts, so the ScoredObject sort (score
  // desc, global id asc) reproduces the unsharded ordering exactly — ties
  // and all; truncation only ever drops rows that k kept rows dominate.
  TopKResult merged;
  auto merge_part = [&](size_t l) {
    merged.insert(merged.end(), parts[l].begin(), parts[l].end());
    std::sort(merged.begin(), merged.end());
    if (merged.size() > query.k) merged.resize(query.k);
  };
  merge_part(home);
  // Skipping only strictly-worse candidates keeps the fan-out exact: an
  // object pruned by the threshold scores strictly below the current k-th
  // result, so the D6 ordering can never place it in the top-k.
  auto threshold = [&] {
    return merged.size() == query.k ? merged.back().score : kNoPrune;
  };

  // Phase 2: the remaining legs, thresholded.
  std::vector<size_t> rest;
  for (size_t l = 0; l < n; ++l) {
    if (l != home) rest.push_back(l);
  }
  const std::string fanout_detail = std::to_string(n - 1) + " shards";
  if (pool_ != nullptr) {
    // Parallel: every other leg searches against the home leg's k-th score.
    const double prune_below = threshold();
    {
      ScopedSpan fanout_span("topk/fanout", fanout_detail);
      FanOut(pool_, rest.size(), [&](size_t i) {
        const size_t l = rest[i];
        parts[l] = legs_[l]->TopK(query, prune_below, &part_stats[l]);
      });
    }
    ScopedSpan merge_span("topk/merge");
    for (const size_t l : rest) merge_part(l);
  } else {
    // Sequential (single-core host): nearest legs first, re-tightening the
    // threshold after each merge — later legs see the best bound yet. The
    // merges interleave with the searches, so one span covers both.
    ScopedSpan fanout_span("topk/fanout", fanout_detail);
    std::stable_sort(rest.begin(), rest.end(), [&](size_t a, size_t b) {
      return distance[a] < distance[b];
    });
    for (const size_t l : rest) {
      parts[l] = legs_[l]->TopK(query, threshold(), &part_stats[l]);
      merge_part(l);
    }
  }
  for (const TopKStats& ps : part_stats) {
    stats->nodes_popped += ps.nodes_popped;
    stats->objects_scored += ps.objects_scored;
  }
  return merged;
}

std::vector<double> WhyNotOracle::TargetScores(
    const std::vector<OracleTargetSpec>& specs) const {
  std::vector<double> scores;
  scores.reserve(specs.size());
  for (const OracleTargetSpec& spec : specs) {
    scores.push_back(
        ScorePartsOf(*spec.query, dist_norm_, Object(spec.target)).score);
  }
  return scores;
}

std::vector<size_t> WhyNotOracle::CountFanOut(
    const std::vector<OracleTargetSpec>& specs, CountMethod method) const {
  const std::vector<double> target_scores = TargetScores(specs);
  std::vector<std::vector<size_t>> counts(legs_.size());
  ForLegs(all_legs_, [&](size_t l) {
    counts[l] = legs_[l]->Count(specs, target_scores, method);
  });
  return SumLegs(std::move(counts));
}

size_t WhyNotOracle::Rank(const Query& query, ObjectId global_id) const {
  return CountFanOut({{&query, global_id}}, CountMethod::kSetR)[0] + 1;
}

std::vector<size_t> WhyNotOracle::OutscoringCountBatch(
    const std::vector<OracleTargetSpec>& specs,
    KeywordAdaptStats* stats) const {
  stats->objects_scored += size_ * specs.size();
  return CountFanOut(specs, CountMethod::kScan);
}

std::unique_ptr<ScorePlaneSession> WhyNotOracle::PrepareScorePlane(
    const Query& query, PrefAdjustMode mode) const {
  return std::make_unique<ScorePlaneSession>(*this, query, mode);
}

std::unique_ptr<RankProbeBatch> WhyNotOracle::ProbeRankBatch(
    const std::vector<OracleTargetSpec>& specs,
    KeywordAdaptStats* stats) const {
  return std::make_unique<RankProbeBatch>(*this, specs, stats);
}

// --- LocalWhyNotOracle -------------------------------------------------------

namespace {

std::vector<std::unique_ptr<ShardLeg>> OneLeg(const ObjectStore& store,
                                              const SetRTree* setr,
                                              const KcRTree* kcr) {
  std::vector<std::unique_ptr<ShardLeg>> legs;
  legs.push_back(std::make_unique<LocalShardLeg>(
      OracleShardView{&store, setr, kcr, nullptr}, store.BoundsDiagonal()));
  return legs;
}

}  // namespace

LocalWhyNotOracle::LocalWhyNotOracle(const ObjectStore& store,
                                     const SetRTree* setr, const KcRTree* kcr)
    : WhyNotOracle(OneLeg(store, setr, kcr), /*pool=*/nullptr,
                   store.BoundsDiagonal(),
                   [&store](ObjectId id) -> const SpatialObject& {
                     return store.Get(id);
                   }) {}

LocalWhyNotOracle::LocalWhyNotOracle(const Corpus& corpus)
    : LocalWhyNotOracle(corpus.store(), &corpus.setr(),
                        corpus.has_kcr() ? &corpus.kcr() : nullptr) {}

}  // namespace yask
