// Copyright (c) 2026 The YASK reproduction authors.
// RemoteShardLeg + RemoteShardOracle: the why-not oracle over the wire.
// Each logical shard is one RemoteShardLeg — a ShardLeg (src/whynot/
// shard_leg.h) whose per-shard primitives are RPCs to the shard's
// ReplicaSet — and RemoteShardOracle is the one WhyNotOracle fan-out over
// those legs, merging exactly as it does in process (counts sum, crossing
// sets union + sort + dedupe, KcR intervals sum elementwise). The shard
// servers answer through a LocalShardLeg and every double rides the wire as
// raw bits, so a coordinator's /whynot answers are byte-identical to the
// in-process sharded path.
//
// Round-trip shape per why-not question (what the batch-only seam buys):
//   * OutscoringCountBatch: one /shard/count per shard for ALL
//     (candidate, missing) pairs of a chunk;
//   * ProbeRankBatch: one /shard/probe/open per shard, then ONE
//     /shard/probe/refine per shard with open frontiers per refinement
//     level across all live candidates;
//   * the Eqn. (3) weight sweep holds one server-side plane session per
//     shard and pays one /shard/plane/count_batch per sweep segment (the
//     segment grows with the observed RPC latency), plus one
//     /shard/plane/crossings per missing object. A grid larger than
//     shardrpc::kMaxPlanePairs is split into requests under the cap; a shard
//     speaking shardrpc v2 (no batch route) gets one /shard/plane/count per
//     pair instead.
//
// Failure model: every stateless call rides ReplicaSet::Call, which fails
// over to a sibling replica mid-call; the plane/probe sessions are
// replica-sticky id-keyed server-side state, so their failover re-opens the
// session on a live replica and REPLAYS the applied refine history before
// re-issuing the failed call (see ShardSessionChannel in the .cc) — a killed
// replica costs latency, never correctness. Only when every replica of a
// shard is gone does the wire failure bump the owning RemoteCorpus's error
// epoch (the oracle interface has no error channel) and contribute neutral
// values; YaskService samples the epoch around each request and answers 503.

#ifndef YASK_CORPUS_REMOTE_WHYNOT_ORACLE_H_
#define YASK_CORPUS_REMOTE_WHYNOT_ORACLE_H_

#include "src/corpus/remote_corpus.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {

/// The oracle over one RemoteShardLeg per shard, fanning out on the
/// corpus's pool. The corpus must outlive the oracle. ProbeRankBatch
/// requires every remote shard to carry its KcR-tree (corpus.has_kcr()).
class RemoteShardOracle : public WhyNotOracle {
 public:
  explicit RemoteShardOracle(const RemoteCorpus& corpus);
};

}  // namespace yask

#endif  // YASK_CORPUS_REMOTE_WHYNOT_ORACLE_H_
