#include "src/whynot/shard_primitives.h"

#include <cassert>

#include "src/query/ranking.h"
#include "src/whynot/preference_adjustment.h"

namespace yask {

namespace {

/// Appends the crossing weight of the anchor's line with p's line when it
/// exists and falls inside [wlo, whi] — the shared re-filter every layout
/// runs, so a crossing's weight is the same double wherever it is computed.
void AppendCrossingWeight(const PlanePoint& m, const PlanePoint& p, double wlo,
                          double whi, std::vector<double>* events) {
  if (p.id == m.id) return;
  const double slope = (p.x - m.x) - (p.y - m.y);
  if (slope == 0.0) return;  // Parallel (or identical) lines: no crossing.
  const double wx = (m.y - p.y) / slope;
  if (!(wx >= wlo && wx <= whi)) return;
  events->push_back(wx);
}

}  // namespace

size_t ShardScanOutscoring(const OracleShardView& view, const Scorer& scorer,
                           double target_score, ObjectId target_global) {
  size_t above = 0;
  for (const SpatialObject& o : view.store.objects()) {
    const ObjectId gid =
        view.to_global != nullptr ? (*view.to_global)[o.id] : o.id;
    if (gid == target_global) continue;
    if (OutranksTarget(scorer.Score(o), gid, target_score, target_global)) {
      ++above;
    }
  }
  return above;
}

// --- ShardPlane --------------------------------------------------------------

ShardPlane::ShardPlane(const OracleShardView& view, const Query& query,
                       double dist_norm, bool optimized)
    : optimized_(optimized) {
  std::vector<PlanePoint> pts =
      BuildPlanePoints(view.store, query, dist_norm, view.to_global);
  if (optimized_) {
    index_ = std::make_unique<ScorePlaneIndex>(std::move(pts));
  } else {
    pts_ = std::move(pts);
  }
}

void ShardPlane::CountBatch(const std::vector<double>& weights,
                            const std::vector<PlanePoint>& anchors,
                            std::vector<size_t>* counts,
                            size_t* nodes_visited) {
  const size_t na = anchors.size();
  for (size_t wi = 0; wi < weights.size(); ++wi) {
    const double w = weights[wi];
    for (size_t a = 0; a < na; ++a) {
      const PlanePoint& anchor = anchors[a];
      const double threshold = anchor.ScoreAt(w);
      size_t above = 0;
      if (optimized_) {
        above = index_->CountAbove(w, threshold, anchor.id);
        *nodes_visited += index_->last_nodes_visited();
      } else {
        for (const PlanePoint& p : pts_) {
          if (p.id == anchor.id) continue;
          if (OutranksTarget(p.ScoreAt(w), p.id, threshold, anchor.id)) {
            ++above;
          }
        }
      }
      (*counts)[wi * na + a] = above;
    }
  }
}

void ShardPlane::Crossings(const PlanePoint& anchor, double wlo, double whi,
                           std::vector<double>* events,
                           size_t* nodes_visited) {
  if (optimized_) {
    index_->ForEachCrossing(anchor, wlo, whi, [&](const PlanePoint& p) {
      AppendCrossingWeight(anchor, p, wlo, whi, events);
    });
    *nodes_visited += index_->last_nodes_visited();
    return;
  }
  for (const PlanePoint& p : pts_) {
    AppendCrossingWeight(anchor, p, wlo, whi, events);
  }
}

// --- ShardRankRefiner --------------------------------------------------------

ShardRankRefiner::ShardRankRefiner(const OracleShardView& view,
                                   const Scorer& scorer,
                                   ObjectId target_global, double target_score,
                                   KeywordAdaptStats* stats)
    : view_(&view),
      scorer_(&scorer),
      target_(target_global),
      target_score_(target_score),
      stats_(stats) {
  const KcRTree& tree = *view.kcr;
  PushNode(tree.root(), tree.node(tree.root()));
}

void ShardRankRefiner::RefineLevel() {
  if (frontier_.empty()) return;
  const KcRTree& tree = *view_->kcr;
  std::vector<Frontier> previous;
  previous.swap(frontier_);
  sum_lower_ = 0;
  sum_upper_ = 0;
  for (const Frontier& f : previous) {
    const auto& node = tree.node(f.node);
    ++stats_->kcr_nodes_expanded;
    if (node.is_leaf) {
      for (const auto& e : node.entries) {
        const ObjectId gid =
            view_->to_global != nullptr ? (*view_->to_global)[e.id] : e.id;
        if (gid == target_) continue;
        ++stats_->objects_scored;
        if (OutranksTarget(scorer_->Score(e.id), gid, target_score_,
                           target_)) {
          ++exact_;
        }
      }
    } else {
      for (const auto& e : node.entries) {
        PushNode(e.id, tree.node(e.id));
      }
    }
  }
}

void ShardRankRefiner::PushNode(KcRTree::NodeId id, const KcRTree::Node& node) {
  if (node.summary.cnt == 0) return;
  const CountBounds b =
      BoundOutscoringCount(*scorer_, node.rect, node.summary, target_score_);
  if (b.upper == 0) return;  // Nothing below can outrank: drop.
  if (b.lower == b.upper) {
    exact_ += b.lower;  // Pinned without descending.
    // Note: the target itself is never counted by the lower bound (its own
    // score cannot strictly exceed itself), so this is tie-safe.
    return;
  }
  frontier_.push_back(Frontier{id, b});
  sum_lower_ += b.lower;
  sum_upper_ += b.upper;
}

// --- LocalShardLeg -----------------------------------------------------------

namespace {

/// One shard's rank probes: per member a copy of the candidate query, a
/// scorer bound to it, and the shard's refiner. Members live behind
/// unique_ptrs because the scorer points into the member's query.
class LocalProbes : public LegProbes {
 public:
  LocalProbes(const OracleShardView& view, double dist_norm,
              const std::vector<OracleTargetSpec>& specs,
              const std::vector<double>& target_scores) {
    members_.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      auto member = std::make_unique<Member>();
      member->query = *specs[i].query;
      member->scorer.emplace(view.store, member->query, dist_norm);
      member->refiner.emplace(view, *member->scorer, specs[i].target,
                              target_scores[i], &work_);
      members_.push_back(std::move(member));
    }
  }

  size_t count_lower(size_t m) const override {
    return members_[m]->refiner->count_lower();
  }
  size_t count_upper(size_t m) const override {
    return members_[m]->refiner->count_upper();
  }
  bool resolved(size_t m) const override {
    return members_[m]->refiner->resolved();
  }
  void Refine(const std::vector<size_t>& members) override {
    for (const size_t m : members) {
      ShardRankRefiner& refiner = *members_[m]->refiner;
      if (!refiner.resolved()) refiner.RefineLevel();
    }
  }

 private:
  struct Member {
    Query query;
    std::optional<Scorer> scorer;
    std::optional<ShardRankRefiner> refiner;
  };
  std::vector<std::unique_ptr<Member>> members_;
};

}  // namespace

LocalShardLeg::LocalShardLeg(const OracleShardView& view, double dist_norm)
    : view_(view), dist_norm_(dist_norm), topk_(view.store, view.setr) {
  topk_.set_dist_norm(dist_norm_);
}

std::optional<Rect> LocalShardLeg::root_mbr() const {
  if (view_.setr.empty()) return std::nullopt;
  return view_.setr.node(view_.setr.root()).rect;
}

TopKResult LocalShardLeg::TopK(const Query& query, double prune_below,
                               TopKStats* stats) const {
  TopKResult rows = topk_.Query(query, prune_below, stats);
  if (view_.to_global != nullptr) {
    for (ScoredObject& row : rows) row.id = (*view_.to_global)[row.id];
  }
  return rows;
}

std::vector<size_t> LocalShardLeg::Count(
    const std::vector<OracleTargetSpec>& specs,
    const std::vector<double>& target_scores, CountMethod method) const {
  std::vector<size_t> counts(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const Scorer scorer(view_.store, *specs[i].query, dist_norm_);
    if (method == CountMethod::kScan) {
      counts[i] = ShardScanOutscoring(view_, scorer, target_scores[i],
                                      specs[i].target);
    } else {
      counts[i] = CountOutscoring(view_.store, view_.setr, scorer,
                                  target_scores[i], specs[i].target,
                                  view_.to_global);
    }
  }
  return counts;
}

std::unique_ptr<LegPlane> LocalShardLeg::OpenPlane(const Query& query,
                                                   bool optimized) const {
  return std::make_unique<ShardPlane>(view_, query, dist_norm_, optimized);
}

std::unique_ptr<LegProbes> LocalShardLeg::OpenProbes(
    const std::vector<OracleTargetSpec>& specs,
    const std::vector<double>& target_scores) const {
  assert(view_.kcr != nullptr && "rank probes require the KcR-tree");
  return std::make_unique<LocalProbes>(view_, dist_norm_, specs,
                                       target_scores);
}

}  // namespace yask
