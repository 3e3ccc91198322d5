// Copyright (c) 2026 The YASK reproduction authors.
// Per-shard why-not primitives and the in-process leg built from them: the
// single-shard halves of every oracle fan-out, written once so that EVERY
// deployment shape runs the same code on a shard's data.
//
// Two legs (src/whynot/shard_leg.h) run these:
//   * LocalShardLeg  — declared below; the in-process oracles hold one per
//                      shard, and ShardService serves one behind HTTP;
//   * RemoteShardLeg — the coordinator's view of one replica set, whose
//                      shard servers answer through a LocalShardLeg.
// The cross-layout bit-identity argument (docs/architecture.md, "Distributed
// why-not") only needs each shard's contribution to be the same doubles
// arithmetic everywhere — which is guaranteed here by having exactly one
// implementation of each per-shard primitive, keyed on GLOBAL ids and the
// GLOBAL SDist normaliser.

#ifndef YASK_WHYNOT_SHARD_PRIMITIVES_H_
#define YASK_WHYNOT_SHARD_PRIMITIVES_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/index/kcr_tree.h"
#include "src/index/score_plane_index.h"
#include "src/index/setr_tree.h"
#include "src/query/query.h"
#include "src/query/scoring.h"
#include "src/query/topk_engine.h"
#include "src/storage/object_store.h"
#include "src/whynot/keyword_adaption.h"
#include "src/whynot/shard_leg.h"

namespace yask {

/// One shard's data. `to_global` maps the shard store's local ids to global
/// ids (null = ids are already global, i.e. the unsharded layout).
struct OracleShardView {
  const ObjectStore& store;
  const SetRTree& setr;
  const KcRTree* kcr = nullptr;  // Null when the shard has no KcR-tree.
  const std::vector<ObjectId>* to_global = nullptr;
};

/// Tie-aware scan count of objects in one shard outscoring the target:
/// score > target_score, or == with global id < target_global (D6). The
/// target itself (present in exactly one shard) is skipped by global id.
size_t ShardScanOutscoring(const OracleShardView& view, const Scorer& scorer,
                           double target_score, ObjectId target_global);

/// One shard's Eqn. (3) score-plane state for one query: the plane points
/// (basic mode) or a ScorePlaneIndex over them (optimized mode). Plane points
/// carry GLOBAL ids. Each count compares against anchor.ScoreAt(w), the same
/// double in every layout.
class ShardPlane : public LegPlane {
 public:
  ShardPlane(const OracleShardView& view, const Query& query, double dist_norm,
             bool optimized);

  void CountBatch(const std::vector<double>& weights,
                  const std::vector<PlanePoint>& anchors,
                  std::vector<size_t>* counts,
                  size_t* nodes_visited) override;
  void Crossings(const PlanePoint& anchor, double wlo, double whi,
                 std::vector<double>* events, size_t* nodes_visited) override;

 private:
  bool optimized_;
  std::vector<PlanePoint> pts_;             // Basic mode only.
  std::unique_ptr<ScorePlaneIndex> index_;  // Optimized mode only.
};

/// Per-shard progressive outscoring-count interval over that shard's
/// KcR-tree: exact counts from resolved leaves plus per-frontier-node
/// CountBounds. Tie-breaks compare GLOBAL ids, so the interval is the
/// shard's exact contribution to the global rank (Eqn. (4) sums them).
class ShardRankRefiner {
 public:
  /// `scorer` must be bound to the candidate query and outlive the refiner;
  /// `stats` must outlive it too (counters accumulate as levels refine).
  ShardRankRefiner(const OracleShardView& view, const Scorer& scorer,
                   ObjectId target_global, double target_score,
                   KeywordAdaptStats* stats);

  size_t count_lower() const { return exact_ + sum_lower_; }
  size_t count_upper() const { return exact_ + sum_upper_; }
  bool resolved() const { return frontier_.empty() || sum_lower_ == sum_upper_; }

  /// Descends the whole frontier one tree level ("when traversing the
  /// KcR-tree downwards, we get tighter bounds", §3.3): every frontier node
  /// is replaced by its children's bounds, leaves by exact tie-aware counts.
  /// No-op when resolved.
  void RefineLevel();

 private:
  struct Frontier {
    KcRTree::NodeId node;
    CountBounds bounds;
  };

  void PushNode(KcRTree::NodeId id, const KcRTree::Node& node);

  const OracleShardView* view_;
  const Scorer* scorer_;
  ObjectId target_;
  double target_score_;
  KeywordAdaptStats* stats_;
  std::vector<Frontier> frontier_;
  size_t exact_ = 0;
  size_t sum_lower_ = 0;
  size_t sum_upper_ = 0;
};

/// The in-process leg: one shard's store and indexes, scored with the
/// GLOBAL normaliser, answering with GLOBAL ids. The view's pointees must
/// outlive the leg.
class LocalShardLeg : public ShardLeg {
 public:
  LocalShardLeg(const OracleShardView& view, double dist_norm);

  size_t size() const override { return view_.store.size(); }
  bool has_kcr() const override { return view_.kcr != nullptr; }
  std::optional<Rect> root_mbr() const override;
  TopKResult TopK(const Query& query, double prune_below,
                  TopKStats* stats) const override;
  std::vector<size_t> Count(const std::vector<OracleTargetSpec>& specs,
                            const std::vector<double>& target_scores,
                            CountMethod method) const override;
  std::unique_ptr<LegPlane> OpenPlane(const Query& query,
                                      bool optimized) const override;
  std::unique_ptr<LegProbes> OpenProbes(
      const std::vector<OracleTargetSpec>& specs,
      const std::vector<double>& target_scores) const override;

 private:
  OracleShardView view_;
  double dist_norm_;
  SetRTopKEngine topk_;
};

}  // namespace yask

#endif  // YASK_WHYNOT_SHARD_PRIMITIVES_H_
