// Copyright (c) 2026 The YASK reproduction authors.
// ShardLeg: one shard as the why-not fan-out sees it — the only thing that
// differs between an in-process shard and a remote replica set.
//
// Every rank-oracle primitive is a per-shard computation followed by a
// partition-sum or union merge (docs/architecture.md, "Distributed
// why-not"). A leg answers the per-shard half; WhyNotOracle
// (src/whynot/whynot_oracle.h) writes the fan-out, the merges and the top-k
// threshold broadcast exactly once over a vector of legs. Two legs exist:
//   * LocalShardLeg  (src/whynot/shard_primitives.h) — one shard's store and
//     indexes in this process; the shard server runs it behind HTTP too;
//   * RemoteShardLeg (src/corpus/remote_whynot_oracle.cc) — one ReplicaSet
//     of shard servers, with session failover and replay.
//
// The seam is batch-only: every call carries a whole batch of targets (or a
// weights × anchors grid), so a remote leg pays one round-trip where an
// in-process leg pays one loop. All object ids crossing it are GLOBAL ids.
// Legs never fail loudly: a remote leg that loses every replica records the
// error on its corpus (which YaskService turns into a 503) and contributes
// neutral values.

#ifndef YASK_WHYNOT_SHARD_LEG_H_
#define YASK_WHYNOT_SHARD_LEG_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/geometry.h"
#include "src/index/score_plane_index.h"
#include "src/query/query.h"
#include "src/query/topk_engine.h"
#include "src/whynot/keyword_adaption.h"

namespace yask {

/// One (query, target object) pair of a batched oracle call. The query must
/// outlive the call; legs that keep per-target state (rank probes) copy it.
struct OracleTargetSpec {
  const Query* query = nullptr;
  ObjectId target = kInvalidObject;  // Global id.
};

/// How a leg counts the objects outscoring a target. The values are the
/// method byte of the /shard/count wire entry.
enum class CountMethod : uint8_t {
  kScan = 0,  // Full-store scan (keyword model's exact ranks).
  kSetR = 1,  // SetR-tree pruned count (rank of an object).
};

/// One leg's Eqn. (3) score-plane state for one query.
class LegPlane {
 public:
  virtual ~LegPlane() = default;

  /// (*counts)[wi * anchors.size() + a] = tie-aware count of this leg's
  /// points outscoring anchors[a] at weights[wi], with threshold
  /// anchors[a].ScoreAt(weights[wi]). `counts` comes pre-sized and zeroed.
  virtual void CountBatch(const std::vector<double>& weights,
                          const std::vector<PlanePoint>& anchors,
                          std::vector<size_t>* counts,
                          size_t* nodes_visited) = 0;

  /// Appends every crossing weight of `anchor`'s score line with one of this
  /// leg's lines inside [wlo, whi] to `events` (duplicates allowed — the
  /// caller sorts and deduplicates the merged set).
  virtual void Crossings(const PlanePoint& anchor, double wlo, double whi,
                         std::vector<double>* events,
                         size_t* nodes_visited) = 0;

  /// How many candidate weights per CountBatch the Step-4 sweep should
  /// speculate on. In-process planes say 1 (a fan-out costs microseconds);
  /// remote planes size it from observed RPC latency.
  virtual size_t PreferredSweepBatch() const { return 1; }
};

/// One leg's Eqn. (4) outscoring-count intervals, one per member target,
/// tightened one KcR-tree level per Refine. Contract per member:
/// count_lower <= exact count <= count_upper; Refine never widens either
/// end; resolved means the interval stopped moving.
class LegProbes {
 public:
  virtual ~LegProbes() = default;

  virtual size_t count_lower(size_t member) const = 0;
  virtual size_t count_upper(size_t member) const = 0;
  virtual bool resolved(size_t member) const = 0;
  /// Descends the open frontiers of the listed members one level; resolved
  /// members are no-ops.
  virtual void Refine(const std::vector<size_t>& members) = 0;

  /// Refinement work so far (kcr_nodes_expanded, objects_scored).
  const KeywordAdaptStats& work() const { return work_; }

 protected:
  KeywordAdaptStats work_;
};

class ShardLeg {
 public:
  virtual ~ShardLeg() = default;

  /// Objects on this leg.
  virtual size_t size() const = 0;
  /// Whether the leg carries its KcR-tree (OpenProbes needs it).
  virtual bool has_kcr() const = 0;
  /// The MBR of the leg's SetR-tree root — the top-k home-leg choice;
  /// nullopt when the tree is empty.
  virtual std::optional<Rect> root_mbr() const = 0;

  /// Thresholded top-k of this leg with GLOBAL ids: rows scoring strictly
  /// below `prune_below` may be omitted. Work counters add into `stats`.
  virtual TopKResult TopK(const Query& query, double prune_below,
                          TopKStats* stats) const = 0;

  /// Tie-aware count of this leg's objects outscoring each spec's target,
  /// whose score under the spec's query is target_scores[i].
  virtual std::vector<size_t> Count(const std::vector<OracleTargetSpec>& specs,
                                    const std::vector<double>& target_scores,
                                    CountMethod method) const = 0;

  /// The leg's score plane for `query` (optimized = index-organised).
  virtual std::unique_ptr<LegPlane> OpenPlane(const Query& query,
                                              bool optimized) const = 0;

  /// Rank probes for every spec (target scores as in Count). Requires
  /// has_kcr(). The leg must outlive the probes.
  virtual std::unique_ptr<LegProbes> OpenProbes(
      const std::vector<OracleTargetSpec>& specs,
      const std::vector<double>& target_scores) const = 0;
};

}  // namespace yask

#endif  // YASK_WHYNOT_SHARD_LEG_H_
