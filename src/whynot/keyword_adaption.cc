#include "src/whynot/keyword_adaption.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <string>

#include "src/common/trace.h"
#include "src/query/scoring.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {

namespace {

/// Iterates all size-`r` index combinations of {0..n-1} in lexicographic
/// order, invoking `fn(indices)`.
template <typename Fn>
void ForEachCombination(size_t n, size_t r, Fn fn) {
  if (r > n) return;
  if (r == 0) {
    const std::vector<size_t> empty;
    fn(empty);
    return;
  }
  std::vector<size_t> idx(r);
  for (size_t i = 0; i < r; ++i) idx[i] = i;
  while (true) {
    fn(idx);
    // Advance to the next combination.
    size_t i = r;
    while (i > 0) {
      --i;
      if (idx[i] != i + n - r) break;
      if (i == 0) return;
    }
    if (idx[i] == i + n - r) return;
    ++idx[i];
    for (size_t k = i + 1; k < r; ++k) idx[k] = idx[k - 1] + 1;
  }
}

}  // namespace

std::vector<KeywordSet> GenerateCandidatesAtDistance(
    const KeywordSet& query_doc, const KeywordSet& insertable,
    size_t distance) {
  std::vector<KeywordSet> out;
  const std::vector<TermId>& del_pool = query_doc.ids();
  const std::vector<TermId>& ins_pool = insertable.ids();
  for (size_t d = 0; d <= std::min(distance, del_pool.size()); ++d) {
    const size_t ins = distance - d;
    if (ins > ins_pool.size()) continue;
    ForEachCombination(del_pool.size(), d, [&](const std::vector<size_t>& di) {
      KeywordSet base = query_doc;
      for (size_t i : di) base.Erase(del_pool[i]);
      ForEachCombination(
          ins_pool.size(), ins, [&](const std::vector<size_t>& ii) {
            KeywordSet cand = base;
            for (size_t i : ii) cand.Insert(ins_pool[i]);
            if (!cand.empty()) out.push_back(std::move(cand));
          });
    });
  }
  return out;
}

Result<RefinedKeywordQuery> AdaptKeywords(
    const WhyNotOracle& oracle, const Query& query,
    const std::vector<ObjectId>& missing,
    const KeywordAdaptOptions& options) {
  if (Status s = query.Validate(); !s.ok()) return s;
  if (missing.empty()) {
    return Status::InvalidArgument("missing object set must be non-empty");
  }
  if (options.lambda < 0.0 || options.lambda > 1.0) {
    return Status::InvalidArgument("lambda must lie in [0, 1]");
  }
  std::vector<ObjectId> m_ids = missing;
  std::sort(m_ids.begin(), m_ids.end());
  m_ids.erase(std::unique(m_ids.begin(), m_ids.end()), m_ids.end());
  for (ObjectId id : m_ids) {
    if (id >= oracle.size()) {
      return Status::NotFound("missing object id " + std::to_string(id) +
                              " is not in the database");
    }
  }
  const bool use_tree = options.mode == KwAdaptMode::kBoundAndPrune;
  if (use_tree && !oracle.has_kcr()) {
    return Status::FailedPrecondition(
        "keyword adaption in bound-and-prune mode needs the KcR-tree on "
        "every shard; build the corpus with build_kcr_tree");
  }

  RefinedKeywordQuery out;
  out.refined = query;
  KeywordAdaptStats& stats = out.stats;
  const double lambda = options.lambda;

  // M.doc = union of the missing objects' documents; the normaliser of ∆doc.
  KeywordSet m_doc;
  for (ObjectId id : m_ids) {
    m_doc = KeywordSet::Union(m_doc, oracle.Object(id).doc);
  }
  const KeywordSet universe = KeywordSet::Union(query.doc, m_doc);
  const KeywordSet insertable = KeywordSet::Difference(m_doc, query.doc);
  const size_t doc_norm = universe.size();

  // --- R(M, q) under the original query (tie-aware exact ranks). A scan is
  // used in both modes: exact ranking of one object is cache-friendly O(n),
  // and measurement shows the KcR bounds prune too weakly for popular query
  // keywords to beat it (the bounds earn their keep pruning *candidates*,
  // where no exact rank is needed at all — see EXPERIMENTS.md E8/E10).
  // All missing objects go through one batched fan-out. ---
  auto exact_rank_of = [&](const Query& q) {
    std::vector<OracleTargetSpec> specs;
    specs.reserve(m_ids.size());
    for (ObjectId id : m_ids) specs.push_back(OracleTargetSpec{&q, id});
    size_t rank = 0;
    for (size_t count : oracle.OutscoringCountBatch(specs, &stats)) {
      rank = std::max(rank, count + 1);
    }
    return rank;
  };
  const size_t r0 = exact_rank_of(query);
  out.original_rank = r0;
  if (r0 <= query.k) {
    out.refined_rank = r0;
    out.already_in_result = true;
    return out;
  }

  // --- Seed: the pure-k refinement (doc unchanged, k' = r0, cost λ). ---
  struct Best {
    KeywordSet doc;
    size_t rank;
    PenaltyBreakdown penalty;
    size_t delta_doc;
    // Whether `rank` is the exact R(M, q'). A candidate's penalty can pin
    // (∆k interval collapsed at 0) while its rank interval is still open;
    // the winner's exact rank is recomputed once at the end so the reported
    // refined_rank never depends on how the bounds happened to tighten.
    bool rank_exact;
  };
  Best best{query.doc, r0, KeywordPenalty(lambda, query, 0, doc_norm, r0, r0),
            0, true};

  const double norm_k = static_cast<double>(r0) - query.k;  // > 0 here.
  auto penalty_from_rank = [&](size_t delta_doc, size_t rank) {
    return KeywordPenalty(lambda, query, delta_doc, doc_norm, r0, rank);
  };
  auto floor_of = [&](size_t delta_doc) {
    return doc_norm == 0
               ? 0.0
               : (1.0 - lambda) * static_cast<double>(delta_doc) / doc_norm;
  };
  auto k_term_of_rank_lb = [&](size_t rank_lb) {
    const size_t dk = rank_lb > query.k ? rank_lb - query.k : 0;
    return lambda * static_cast<double>(dk) / norm_k;
  };
  // Deterministic preference among equal penalties: smaller ∆doc, then
  // lexicographically smaller keyword id vector.
  auto offer_best = [&](const KeywordSet& doc, size_t rank, size_t delta_doc,
                        const PenaltyBreakdown& pen, bool rank_exact) {
    const bool better =
        pen.value < best.penalty.value ||
        (pen.value == best.penalty.value &&
         (delta_doc < best.delta_doc ||
          (delta_doc == best.delta_doc && doc.ids() < best.doc.ids())));
    if (better) best = Best{doc, rank, pen, delta_doc, rank_exact};
  };

  // --- Candidate evaluators. Both offer a candidate to the running best
  // exactly when its true penalty is at most the best so far, and every cut
  // is strict, so the final winner is independent of the evaluation
  // schedule — which is what lets the batched path regroup the work without
  // changing the answer. ---

  // Per-candidate bound-and-prune (the per-probe reference path, kept for
  // the before/after round-trip comparison of bench_remote_shards): one
  // batch-of-one rank probe per missing object, refining the widest probe
  // one level per oracle call.
  auto evaluate_with_probes = [&](const KeywordSet& cand,
                                  const Query& cand_query, size_t e,
                                  double floor) {
    std::vector<std::unique_ptr<RankProbeBatch>> probes;
    probes.reserve(m_ids.size());
    for (ObjectId id : m_ids) {
      probes.push_back(oracle.ProbeRankBatch({{&cand_query, id}}, &stats));
    }
    while (true) {
      size_t rank_lb = 0;
      size_t rank_ub = 0;
      for (const auto& p : probes) {
        rank_lb = std::max(rank_lb, p->lower(0));
        rank_ub = std::max(rank_ub, p->upper(0));
      }
      // Penalty interval from the rank interval. The cut is STRICT: a
      // candidate whose penalty lower bound merely ties the best keeps
      // refining until the ∆k pins, so exact-tie candidates always reach
      // offer_best and its layout-independent tie order — bounds tighten
      // differently over different shard layouts, and a >= cut here would
      // let that difference decide ties.
      const double pen_lb = k_term_of_rank_lb(rank_lb) + floor;
      if (pen_lb > best.penalty.value) {
        ++stats.candidates_pruned_bounds;
        return;
      }
      const size_t dk_lb = rank_lb > query.k ? rank_lb - query.k : 0;
      const size_t dk_ub = rank_ub > query.k ? rank_ub - query.k : 0;
      if (dk_lb == dk_ub) {
        // Penalty pinned exactly (∆k equal at both ends).
        ++stats.candidates_resolved;
        offer_best(cand, rank_ub, e, penalty_from_rank(e, rank_ub),
                   /*rank_exact=*/rank_lb == rank_ub);
        return;
      }
      // Refine the missing object driving the upper rank the hardest by
      // one tree level.
      RankProbeBatch* widest = nullptr;
      for (const auto& p : probes) {
        if (p->resolved(0)) continue;
        if (widest == nullptr || p->upper(0) > widest->upper(0)) {
          widest = p.get();
        }
      }
      if (widest == nullptr) {
        // All resolved yet ∆k interval not collapsed: ranks are exact now.
        ++stats.candidates_resolved;
        offer_best(cand, rank_ub, e, penalty_from_rank(e, rank_ub),
                   /*rank_exact=*/true);
        return;
      }
      {
        ScopedSpan span("kw/refine_level", "probes=1");
        widest->RefineLevel({0});
      }
      ++stats.probe_fanouts;
      ++stats.refine_levels;
    }
  };

  // Batched bound-and-prune over one chunk of candidates: a single
  // ProbeRankBatch covers every (candidate, missing object) pair, and every
  // refinement level is ONE oracle fan-out across all still-live candidates
  // — one round-trip per shard per level on a remote oracle, instead of one
  // per probe per level.
  auto evaluate_chunk_batched = [&](std::vector<KeywordSet>& chunk, size_t e,
                                    double floor) {
    const size_t m = m_ids.size();
    std::vector<Query> cand_queries;
    cand_queries.reserve(chunk.size());
    for (KeywordSet& cand : chunk) {
      Query cand_query = query;
      cand_query.doc = cand;
      cand_queries.push_back(std::move(cand_query));
    }
    std::vector<OracleTargetSpec> specs;
    specs.reserve(cand_queries.size() * m);
    for (const Query& cq : cand_queries) {
      for (ObjectId id : m_ids) specs.push_back(OracleTargetSpec{&cq, id});
    }

    if (!use_tree) {
      // Basic: exact ranks by (batched) full scans.
      const std::vector<size_t> counts =
          oracle.OutscoringCountBatch(specs, &stats);
      for (size_t c = 0; c < cand_queries.size(); ++c) {
        size_t rank = 0;
        for (size_t j = 0; j < m; ++j) {
          rank = std::max(rank, counts[c * m + j] + 1);
        }
        ++stats.candidates_resolved;
        offer_best(cand_queries[c].doc, rank, e, penalty_from_rank(e, rank),
                   /*rank_exact=*/true);
      }
      return;
    }

    auto batch = oracle.ProbeRankBatch(specs, &stats);
    std::vector<char> live(cand_queries.size(), 1);
    size_t live_count = cand_queries.size();
    std::vector<size_t> to_refine;
    while (live_count > 0) {
      to_refine.clear();
      for (size_t c = 0; c < cand_queries.size(); ++c) {
        if (!live[c]) continue;
        size_t rank_lb = 0;
        size_t rank_ub = 0;
        bool all_resolved = true;
        for (size_t j = 0; j < m; ++j) {
          const size_t i = c * m + j;
          rank_lb = std::max(rank_lb, batch->lower(i));
          rank_ub = std::max(rank_ub, batch->upper(i));
          all_resolved = all_resolved && batch->resolved(i);
        }
        // Same strict cut / exact-pin rules as the per-probe path (see the
        // comment there); only the regrouping of the refinement differs.
        const double pen_lb = k_term_of_rank_lb(rank_lb) + floor;
        if (pen_lb > best.penalty.value) {
          ++stats.candidates_pruned_bounds;
          live[c] = 0;
          --live_count;
          continue;
        }
        const size_t dk_lb = rank_lb > query.k ? rank_lb - query.k : 0;
        const size_t dk_ub = rank_ub > query.k ? rank_ub - query.k : 0;
        if (dk_lb == dk_ub || all_resolved) {
          ++stats.candidates_resolved;
          offer_best(cand_queries[c].doc, rank_ub, e,
                     penalty_from_rank(e, rank_ub),
                     /*rank_exact=*/rank_lb == rank_ub);
          live[c] = 0;
          --live_count;
          continue;
        }
        for (size_t j = 0; j < m; ++j) {
          const size_t i = c * m + j;
          if (!batch->resolved(i)) to_refine.push_back(i);
        }
      }
      if (live_count == 0 || to_refine.empty()) break;
      {
        ScopedSpan span("kw/refine_level",
                        "probes=" + std::to_string(to_refine.size()));
        batch->RefineLevel(to_refine);
      }
      ++stats.probe_fanouts;
      ++stats.refine_levels;
    }
  };

  // --- Enumerate candidates by increasing ∆doc. ---
  const size_t max_distance_pool = query.doc.size() + insertable.size();
  size_t e_cap = options.max_edit_distance == 0
                     ? max_distance_pool
                     : std::min(options.max_edit_distance, max_distance_pool);

  bool done = false;
  std::vector<KeywordSet> chunk;
  for (size_t e = 1; e <= e_cap && !done; ++e) {
    // Whole-level cut. >= is safe HERE (unlike the per-candidate floor cut
    // below): at a level's start `best` came from a smaller ∆doc, so a
    // level-e candidate tying it loses the ∆doc tie-break anyway.
    if (floor_of(e) >= best.penalty.value) break;
    std::vector<KeywordSet> level_candidates =
        GenerateCandidatesAtDistance(query.doc, insertable, e);
    chunk.clear();
    auto flush_chunk = [&] {
      if (chunk.empty()) return;
      evaluate_chunk_batched(chunk, e, floor_of(e));
      chunk.clear();
    };
    for (KeywordSet& cand : level_candidates) {
      if (options.max_candidates != 0 &&
          stats.candidates_generated >= options.max_candidates) {
        stats.truncated = true;
        done = true;
        break;
      }
      ++stats.candidates_generated;
      const double floor = floor_of(e);
      // STRICT, like every other cut: a candidate whose floor merely TIES
      // the best may still win offer_best's deterministic tie order
      // (smaller ∆doc, then smaller keyword ids), so it must be evaluated.
      // A >= cut here would let evaluation order decide exact ties — the
      // per-probe and batched schedules would return different (equally
      // optimal) refinements.
      if (floor > best.penalty.value) {
        ++stats.candidates_pruned_floor;
        continue;
      }

      if (!options.batch_probes) {
        Query cand_query = query;
        cand_query.doc = cand;
        if (!use_tree) {
          // Basic: exact ranks by full scans.
          size_t rank = 0;
          for (ObjectId id : m_ids) {
            rank = std::max(
                rank,
                oracle.OutscoringCountBatch({{&cand_query, id}}, &stats)[0] +
                    1);
          }
          ++stats.candidates_resolved;
          offer_best(cand, rank, e, penalty_from_rank(e, rank),
                     /*rank_exact=*/true);
        } else {
          evaluate_with_probes(cand, cand_query, e, floor);
        }
        continue;
      }

      chunk.push_back(std::move(cand));
      if (options.probe_batch_size != 0 &&
          chunk.size() >= options.probe_batch_size) {
        flush_chunk();
      }
    }
    flush_chunk();
  }

  if (!best.rank_exact) {
    // The winner's ∆k pinned at 0 before its rank interval collapsed (the
    // candidate revives M inside the original k). Resolve the exact rank so
    // refined_rank is the true R(M, q') in every layout.
    Query best_query = query;
    best_query.doc = best.doc;
    best.rank = exact_rank_of(best_query);
  }

  out.refined.doc = best.doc;
  out.refined.k =
      static_cast<uint32_t>(std::max<size_t>(query.k, best.rank));
  out.refined_rank = best.rank;
  out.penalty = best.penalty;
  return out;
}

}  // namespace yask
