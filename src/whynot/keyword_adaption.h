// Copyright (c) 2026 The YASK reproduction authors.
// The keyword-adapted why-not module (§2.2 Definition 3, §3.3, ref [6]).
//
// Goal: given the initial query q and missing objects M, find the refined
// keyword set doc' (and k') minimising penalty Eqn. (4) such that the top-k'
// result contains all of M.
//
// Method (ref [6]): candidate keyword sets are built from q.doc ∪ M.doc —
// deleting keywords of q.doc and/or inserting keywords that describe the
// missing objects. Candidates are enumerated in increasing edit distance
// ∆doc, which yields the admissible penalty floor
//     penalty(c) >= (1−λ)·∆doc(c) / |q.doc ∪ M.doc|                  (D4)
// allowing whole levels to be cut once the floor alone exceeds the best
// penalty found. For each surviving candidate, the rank of every missing
// object under the candidate query is bracketed with KcR-tree node bounds
// (BoundOutscoringCount, D5) and progressively refined — descending the
// frontier node with the widest count gap — until either the candidate's
// penalty lower bound exceeds the current best (pruned without exact ranks)
// or the penalty is pinned exactly. The pure-k refinement (doc unchanged,
// k' = R(M,q), penalty λ) seeds the search.
//
// The basic baseline computes every candidate's ranks by a full database
// scan, as in the paper's evaluation of ref [6].

#ifndef YASK_WHYNOT_KEYWORD_ADAPTION_H_
#define YASK_WHYNOT_KEYWORD_ADAPTION_H_

#include <vector>

#include "src/common/status.h"
#include "src/query/query.h"
#include "src/storage/object_store.h"
#include "src/whynot/penalty.h"

namespace yask {

class WhyNotOracle;  // src/whynot/whynot_oracle.h

/// Algorithm selector for AdaptKeywords.
enum class KwAdaptMode {
  kBasic,         // Exact rank by full scan per candidate.
  kBoundAndPrune, // KcR-tree rank bounds with progressive refinement.
};

struct KeywordAdaptOptions {
  /// The λ of Eqn. (4): weight of the ∆k term versus the ∆doc term.
  double lambda = 0.5;
  KwAdaptMode mode = KwAdaptMode::kBoundAndPrune;
  /// Hard cap on ∆doc (0 = only the λ-derived bound).
  size_t max_edit_distance = 0;
  /// Safety valve on generated candidates (0 = unlimited). When hit, the
  /// result is the best among the generated candidates and
  /// `stats.truncated` is set.
  size_t max_candidates = 500000;
  /// Level-synchronous batched search (default): the candidates of one edit
  /// distance share ONE rank-probe batch, refined with one oracle fan-out
  /// per refinement level across all live candidates — the round-trip shape
  /// that makes remote shards affordable. Off = the per-probe search (one
  /// oracle call per candidate per level), kept for comparison benchmarks.
  /// The refined query is bit-identical either way: the search only ever
  /// cuts candidates whose penalty lower bound strictly exceeds the best, so
  /// the winner does not depend on the probing schedule.
  bool batch_probes = true;
  /// Candidates per probe batch (bounds batch memory: each in-flight
  /// candidate holds per-shard refiner frontiers). 0 = unbounded.
  size_t probe_batch_size = 128;
};

/// Work counters (benchmarks E8/E9/E10 and the remote round-trip gate).
struct KeywordAdaptStats {
  size_t candidates_generated = 0;
  size_t candidates_pruned_floor = 0;   // Cut by the ∆doc floor alone.
  size_t candidates_pruned_bounds = 0;  // Cut by KcR-tree penalty bounds.
  size_t candidates_resolved = 0;       // Evaluated to an exact penalty.
  size_t kcr_nodes_expanded = 0;
  size_t objects_scored = 0;            // Exact score evaluations.
  /// Rank-probe refinement fan-outs issued (each is one RankProbeBatch::
  /// RefineLevel — one round-trip per shard on a remote oracle). Unbatched,
  /// every per-probe RefineLevel counts one.
  size_t probe_fanouts = 0;
  /// Refinement levels processed. Batched search issues exactly one fan-out
  /// per level (probe_fanouts == refine_levels); the per-probe search issues
  /// one per live probe per level.
  size_t refine_levels = 0;
  bool truncated = false;               // max_candidates hit.
};

/// The outcome: a refined query plus its cost and diagnostics.
struct RefinedKeywordQuery {
  Query refined;             // Same loc/w; adapted doc and k.
  PenaltyBreakdown penalty;  // Eqn. (4) breakdown.
  size_t original_rank = 0;  // R(M, q).
  size_t refined_rank = 0;   // R(M, q').
  bool already_in_result = false;  // M ⊆ top-k(q): nothing to refine.
  KeywordAdaptStats stats;
};

/// Solves Definition 3 over any corpus layout behind the oracle seam. The
/// search offers a candidate to the running best exactly when its true
/// penalty is at most the best so far (bound pruning only ever cuts
/// candidates that are strictly worse), so the refined query — including the
/// deterministic tie order: smaller ∆doc, then lexicographically smaller
/// keyword ids — is bit-identical across layouts.
Result<RefinedKeywordQuery> AdaptKeywords(
    const WhyNotOracle& oracle, const Query& query,
    const std::vector<ObjectId>& missing,
    const KeywordAdaptOptions& options = {});

/// Enumerates all candidate keyword sets at edit distance exactly `distance`
/// from `query_doc`, deleting only query keywords and inserting only keywords
/// of `insertable` (= M.doc \ q.doc). Exposed for tests and benchmarks.
std::vector<KeywordSet> GenerateCandidatesAtDistance(
    const KeywordSet& query_doc, const KeywordSet& insertable,
    size_t distance);

}  // namespace yask

#endif  // YASK_WHYNOT_KEYWORD_ADAPTION_H_
