// Copyright (c) 2026 The YASK reproduction authors.
// The rank/candidate oracle seam between the why-not algorithms and the
// corpus they run over.
//
// The three why-not modules (explanation, preference adjustment, keyword
// adaption) are global by construction: they rank objects against the WHOLE
// dataset, sweep the weight plane over every object's (1−SDist, TSim) point,
// and bracket candidate ranks with index bounds. Before this seam existed
// they walked one store's SetR/KcR-trees directly, which is why a sharded
// service could not answer /whynot. The observation that unlocks exact
// distributed why-not is that every one of those primitives is a
// partition-sum or a partition-union:
//
//   * rank(o, q) − 1   = Σ over shards of the shard's tie-aware outscoring
//                        count (scores are bit-identical across layouts —
//                        global SDist normaliser, shared vocabulary — and the
//                        tie order compares GLOBAL ids);
//   * the Eqn. (3) crossing-weight candidates of a missing object are the
//     union of each shard's crossings (each crossing is computed from the
//     same two doubles in either layout, so the union deduplicates exactly);
//   * the Eqn. (4) rank interval of a candidate query is 1 + Σ over shards
//     of per-shard KcR count intervals ([lo,hi] sums elementwise).
//
// WhyNotOracle captures exactly those primitives, batch-only, as ONE
// fan-out/merge over the corpus's shard legs (src/whynot/shard_leg.h): an
// in-process shard and a remote replica set differ only in the leg. The
// algorithms run unchanged over every layout. Determinism argument:
// docs/architecture.md, "Distributed why-not".

#ifndef YASK_WHYNOT_WHYNOT_ORACLE_H_
#define YASK_WHYNOT_WHYNOT_ORACLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/index/kcr_tree.h"
#include "src/index/score_plane_index.h"
#include "src/index/setr_tree.h"
#include "src/query/query.h"
#include "src/query/scoring.h"
#include "src/query/topk_engine.h"
#include "src/storage/object_store.h"
#include "src/whynot/keyword_adaption.h"
#include "src/whynot/preference_adjustment.h"
#include "src/whynot/shard_leg.h"
#include "src/whynot/shard_primitives.h"

namespace yask {

class Corpus;

/// SDist / TSim / ST(o, q) of one object, normalised by `dist_norm` — the
/// exact floating-point arithmetic Scorer uses, evaluable from an object
/// reference alone (a sharded oracle has no single backing store to bind a
/// Scorer to).
struct ObjectScoreParts {
  double sdist = 0.0;
  double tsim = 0.0;
  double score = 0.0;
};

inline ObjectScoreParts ScorePartsOf(const Query& query, double dist_norm,
                                     const SpatialObject& o) {
  ObjectScoreParts parts;
  parts.sdist = NormalizedSpatialDistance(o.loc, query.loc, dist_norm);
  parts.tsim = query.doc.Jaccard(o.doc);
  parts.score =
      query.w.ws * (1.0 - parts.sdist) + query.w.wt * parts.tsim;
  return parts;
}

class WhyNotOracle;

/// A per-query score-plane session: the Eqn. (3) primitives over every leg
/// of the oracle, merged by partition-sum (counts) and union (crossings).
/// The query passed to PrepareScorePlane must outlive the session. A session
/// serves one algorithm invocation on one thread.
class ScorePlaneSession {
 public:
  ScorePlaneSession(const WhyNotOracle& oracle, const Query& query,
                    PrefAdjustMode mode);

  /// The score-plane point (1 − SDist, TSim) of a missing object, carrying
  /// its GLOBAL id (the tie-break identity everywhere in the weight sweep).
  PlanePoint Anchor(ObjectId global_id) const;

  /// counts[wi * anchors.size() + a] == tie-aware count of objects
  /// outscoring anchors[a] at weights[wi] (rank − 1), for every pair of the
  /// grid in ONE fan-out (one request per shard for a remote leg). A single
  /// count is a grid of one. Work counters accumulate into `stats`.
  std::vector<size_t> CountAboveBatch(const std::vector<double>& weights,
                                      const std::vector<PlanePoint>& anchors,
                                      PreferenceAdjustStats* stats) const;

  /// Appends every crossing weight of `anchor`'s score line with another
  /// object's line inside [wlo, whi] to `events` (duplicates allowed — the
  /// caller sorts and deduplicates the merged set).
  void CollectCrossings(const PlanePoint& anchor, double wlo, double whi,
                        std::vector<double>* events,
                        PreferenceAdjustStats* stats) const;

  /// How many candidate weights per CountAboveBatch the Step-4 sweep should
  /// speculate on: 1 in process; from observed RPC latency over the wire.
  size_t PreferredSweepBatch() const;

 private:
  const WhyNotOracle* oracle_;
  const Query* query_;
  bool optimized_;
  std::vector<std::unique_ptr<LegPlane>> planes_;  // One per leg.
};

/// A batch of Eqn. (4) rank probes sharing fan-outs: one rank interval per
/// (candidate query, missing object) spec, 1 + Σ per-leg KcR outscoring-count
/// intervals, tightened one tree level at a time ("when traversing the
/// KcR-tree downwards, we get tighter bounds", §3.3). Created in one fan-out
/// and refined one level per fan-out across every listed member — one
/// request per shard per level on a remote oracle, however many candidates
/// are in flight. Contract per member: lower() <= true rank <= upper();
/// RefineLevel never widens; resolved == collapsed.
class RankProbeBatch {
 public:
  /// `stats` must outlive the batch (counters are flushed on destruction).
  RankProbeBatch(const WhyNotOracle& oracle,
                 const std::vector<OracleTargetSpec>& specs,
                 KeywordAdaptStats* stats);
  ~RankProbeBatch();
  RankProbeBatch(const RankProbeBatch&) = delete;
  RankProbeBatch& operator=(const RankProbeBatch&) = delete;

  size_t size() const { return size_; }
  size_t lower(size_t i) const;
  size_t upper(size_t i) const;
  bool resolved(size_t i) const;
  /// Descends every listed member's open frontiers one level in one fan-out
  /// over the legs that still have work. Members already resolved are no-ops.
  void RefineLevel(const std::vector<size_t>& members);

 private:
  const WhyNotOracle* oracle_;
  KeywordAdaptStats* stats_;
  size_t size_;
  std::vector<std::unique_ptr<LegProbes>> probes_;  // One per leg.
};

/// The seam between the why-not algorithms and the corpus they run over:
/// the one fan-out/merge over a corpus's shard legs. All object ids crossing
/// it are GLOBAL ids. LocalWhyNotOracle, ShardedWhyNotOracle
/// (src/corpus/sharded_whynot_oracle.h) and RemoteShardOracle
/// (src/corpus/remote_whynot_oracle.h) are its constructors for the three
/// layouts; they add no behaviour.
class WhyNotOracle {
 public:
  using ObjectLookup = std::function<const SpatialObject&(ObjectId)>;

  /// `pool` null = fan-outs run inline on the calling thread. `object`
  /// resolves a global id to its object.
  WhyNotOracle(std::vector<std::unique_ptr<ShardLeg>> legs, ThreadPool* pool,
               double dist_norm, ObjectLookup object);
  virtual ~WhyNotOracle();
  WhyNotOracle(const WhyNotOracle&) = delete;
  WhyNotOracle& operator=(const WhyNotOracle&) = delete;

  size_t size() const { return size_; }
  /// The SDist normaliser of Eqn. (1): the WHOLE dataset's MBR diagonal.
  double dist_norm() const { return dist_norm_; }
  /// Every leg carries its KcR-tree (ProbeRankBatch needs it).
  bool has_kcr() const;
  /// The object with a global id. Note: in a sharded layout the returned
  /// object's `.id` field may be shard-local; use the id you passed.
  const SpatialObject& Object(ObjectId global_id) const {
    return object_(global_id);
  }

  /// Exact top-k with global result ids: the query's home leg (nearest SetR
  /// root) first, its k-th score broadcast to the other legs as a prune
  /// threshold, rows merged under the ScoredObject order (score desc,
  /// global id asc) — bit-identical to one unsharded store.
  TopKResult TopK(const Query& query, TopKStats* stats = nullptr) const;

  /// Tie-aware exact rank of an object (D6 order), via pruned index walks.
  size_t Rank(const Query& query, ObjectId global_id) const;

  /// Tie-aware exact count of objects outscoring each spec's target (rank −
  /// 1), by full scan, in one fan-out — the keyword model's R(M, q) and
  /// basic-mode candidate ranks. A single count is a batch of one.
  std::vector<size_t> OutscoringCountBatch(
      const std::vector<OracleTargetSpec>& specs,
      KeywordAdaptStats* stats) const;

  /// Builds the per-query score-plane state for Eqn. (3). `query` must
  /// outlive the returned session.
  std::unique_ptr<ScorePlaneSession> PrepareScorePlane(
      const Query& query, PrefAdjustMode mode) const;

  /// Rank intervals for every spec (see RankProbeBatch). Requires
  /// has_kcr(); `stats` must outlive the batch.
  std::unique_ptr<RankProbeBatch> ProbeRankBatch(
      const std::vector<OracleTargetSpec>& specs,
      KeywordAdaptStats* stats) const;

  const ThreadPool* pool() const { return pool_; }
  /// Benchmark instrumentation: when non-null (size == number of legs),
  /// every per-leg why-not fan-out task adds its busy time here — the
  /// scatter-gather deployment model of bench_whynot_sharded. Not safe under
  /// concurrent oracle calls; leave null in servers.
  void set_shard_busy_ms(std::vector<double>* sink) { shard_busy_ms_ = sink; }

 private:
  friend class ScorePlaneSession;
  friend class RankProbeBatch;

  /// Runs fn(leg) for the listed legs through FanOut, timing each task into
  /// the busy sink when one is set.
  void ForLegs(const std::vector<size_t>& legs,
               const std::function<void(size_t)>& fn) const;
  /// Each spec's target score under its query, resolved here: a target need
  /// not live on the leg being asked.
  std::vector<double> TargetScores(
      const std::vector<OracleTargetSpec>& specs) const;
  /// Partition-sum of the per-leg counts.
  std::vector<size_t> CountFanOut(const std::vector<OracleTargetSpec>& specs,
                                  CountMethod method) const;

  std::vector<std::unique_ptr<ShardLeg>> legs_;
  std::vector<size_t> all_legs_;  // 0..legs_.size()-1, reused by fan-outs.
  ThreadPool* pool_;
  double dist_norm_;
  ObjectLookup object_;
  size_t size_ = 0;
  std::vector<double>* shard_busy_ms_ = nullptr;
};

/// The oracle over one unsharded corpus — one local leg, no pool.
/// ProbeRankBatch needs corpus.has_kcr().
class LocalWhyNotOracle : public WhyNotOracle {
 public:
  explicit LocalWhyNotOracle(const Corpus& corpus);
};

}  // namespace yask

#endif  // YASK_WHYNOT_WHYNOT_ORACLE_H_
