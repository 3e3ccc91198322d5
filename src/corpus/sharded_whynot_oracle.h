// Copyright (c) 2026 The YASK reproduction authors.
// ShardedWhyNotOracle: the WhyNotOracle seam implemented over a
// ShardedCorpus, making the why-not stack — explanations, preference
// adjustment, keyword adaption — exact on the scale-out layout.
//
// Every oracle primitive fans out over the corpus's shared worker pool (the
// same pool /query uses) and merges with the same discipline that makes
// sharded top-k bit-identical:
//   * scores use the GLOBAL SDist normaliser and the shared vocabulary, so
//     an object's score is the same doubles-arithmetic in both layouts;
//   * tie orders compare GLOBAL ids everywhere;
//   * outscoring counts SUM across shards (disjoint partition of one
//     predicate), crossing-weight candidate sets UNION (then sort + dedupe),
//     and per-candidate KcR rank intervals sum elementwise — each shard's
//     [lo, hi] is its exact contribution's bounds, so the summed interval is
//     admissible and collapses to the global exact count.
// The why-not algorithms run unchanged over this oracle, so a sharded
// service answers /whynot bit-identically to an unsharded replica
// (property-tested at 1/2/4/8 shards; bench_whynot_sharded gates on it).

#ifndef YASK_CORPUS_SHARDED_WHYNOT_ORACLE_H_
#define YASK_CORPUS_SHARDED_WHYNOT_ORACLE_H_

#include "src/corpus/sharded_corpus.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {

/// The oracle over one LocalShardLeg per shard, fanning out on the corpus's
/// shared pool. The corpus must outlive the oracle. ProbeRankBatch (keyword
/// adaption) requires every shard to have been built with its KcR-tree.
class ShardedWhyNotOracle : public WhyNotOracle {
 public:
  explicit ShardedWhyNotOracle(const ShardedCorpus& corpus);
};

}  // namespace yask

#endif  // YASK_CORPUS_SHARDED_WHYNOT_ORACLE_H_
