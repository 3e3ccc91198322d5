// Copyright (c) 2026 The YASK reproduction authors.
// The explanation generator module (§3.3): "Given a missing object, this
// module generates an explanation by analyzing its spatial proximity and
// textual relevance with respect to the initial query based on the
// SetR-tree. The reason can be that the missing object is too far away from
// the query location or that the missing object is not so relevant to the
// set of query keywords. The ranking of the missing object under the initial
// query is also provided."

#ifndef YASK_WHYNOT_EXPLANATION_H_
#define YASK_WHYNOT_EXPLANATION_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/query/query.h"
#include "src/storage/object_store.h"

namespace yask {

class WhyNotOracle;  // src/whynot/whynot_oracle.h

/// Why an expected object failed to enter the top-k.
enum class MissingReason {
  kInResult,          // Not actually missing.
  kTooFar,            // Spatial distance is the dominant deficit.
  kKeywordMismatch,   // Textual similarity is the dominant deficit.
  kBoth,              // Both components trail the current results.
  kNarrowlyOutranked, // Components are competitive; k is simply too small.
};

const char* MissingReasonToString(MissingReason reason);

/// Which refinement model the explanation generator suggests trying first.
enum class RefinementRecommendation {
  kNone,                  // Object already in the result.
  kPreferenceAdjustment,  // Re-weighting can plausibly revive it.
  kKeywordAdaption,       // Better keywords can plausibly revive it.
  kEither,                // Both look promising (or k-enlargement alone).
};

const char* RefinementRecommendationToString(RefinementRecommendation r);

/// The per-missing-object analysis shown in the demo's explanation panel.
struct MissingObjectExplanation {
  ObjectId id = kInvalidObject;
  size_t rank = 0;          // Rank under the initial query.
  double score = 0.0;       // ST(o, q).
  double sdist = 0.0;       // Normalised spatial distance.
  double tsim = 0.0;        // Jaccard similarity to q.doc.
  double kth_score = 0.0;   // Score of the current k-th result.
  double kth_sdist = 0.0;   // Spatial distance of the k-th result.
  double kth_tsim = 0.0;    // Textual similarity of the k-th result.
  MissingReason reason = MissingReason::kInResult;
  RefinementRecommendation recommendation = RefinementRecommendation::kNone;
  std::string text;         // Human-readable explanation sentence.
};

/// Analyses each missing object against the initial query over any corpus
/// layout behind the oracle seam: the top-k frontier, the per-object ranks
/// (partition-sums of per-shard outscoring counts) and the score components
/// are all layout-independent, so the explanations — texts included — are
/// bit-identical across layouts.
Result<std::vector<MissingObjectExplanation>> ExplainMissing(
    const WhyNotOracle& oracle, const Query& query,
    const std::vector<ObjectId>& missing);

}  // namespace yask

#endif  // YASK_WHYNOT_EXPLANATION_H_
