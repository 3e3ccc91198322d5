// Experiment E12 (DESIGN.md): the explanation generator (§3.3).
//
// Measures the per-missing-object explanation cost (rank computation with
// SetR-tree pruning is the dominant part) and prints the distribution of
// verdicts over random missing objects — the demo's explanation panel
// content at scale.
//
// Expected shape: explanation cost is close to one pruned rank computation;
// far/rare objects are classified too-far / keyword-mismatch, near-misses as
// narrowly-outranked.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "src/query/ranking.h"
#include "src/whynot/explanation.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace bench {
namespace {

void PrintVerdictDistribution() {
  const size_t n = 100000;
  const ObjectStore& store = SharedDataset(n);
  const LocalWhyNotOracle oracle(SharedCorpus(n));
  Rng rng(41);
  std::map<MissingReason, size_t> verdicts;
  size_t trials = 0;
  while (trials < 200) {
    const Query q = MakeQuery(store, &rng, 3, 10);
    const ObjectId target =
        static_cast<ObjectId>(rng.NextBounded(store.size()));
    auto result = ExplainMissing(oracle, q, {target});
    if (!result.ok()) continue;
    ++verdicts[result->at(0).reason];
    ++trials;
  }
  std::printf(
      "\n=== E12: explanation verdicts over %zu random (query, object) pairs "
      "(N=%zu, k=10) ===\n",
      trials, n);
  for (const auto& [reason, count] : verdicts) {
    std::printf("  %-28s %5zu  (%.1f%%)\n", MissingReasonToString(reason),
                count, 100.0 * count / trials);
  }
  std::printf("\n");
}

void BM_ExplainMissing(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ObjectStore& store = SharedDataset(n);
  const LocalWhyNotOracle oracle(SharedCorpus(n));
  Rng rng(43);
  const Query q = MakeQuery(store, &rng, 3, 10);
  const std::vector<ObjectId> missing = PickMissing(store, q, 1, 10);
  for (auto _ : state) {
    auto result = ExplainMissing(oracle, q, missing);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExplainMissing)->ArgName("N")->Arg(10000)->Arg(100000);

void BM_RankComputation_Pruned(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ObjectStore& store = SharedDataset(n);
  const SetRTree& tree = SharedSetR(n);
  Rng rng(47);
  const Query q = MakeQuery(store, &rng, 3, 10);
  const ObjectId target = PickMissing(store, q, 1, 10)[0];
  RankStats stats;
  size_t runs = 0;
  for (auto _ : state) {
    size_t rank = ComputeRank(store, tree, q, target, &stats);
    benchmark::DoNotOptimize(rank);
    ++runs;
  }
  state.counters["objects_scored/rank"] =
      benchmark::Counter(static_cast<double>(stats.objects_scored) / runs);
}
BENCHMARK(BM_RankComputation_Pruned)->ArgName("N")->Arg(10000)->Arg(100000);

void BM_RankComputation_Scan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ObjectStore& store = SharedDataset(n);
  Rng rng(47);
  const Query q = MakeQuery(store, &rng, 3, 10);
  const ObjectId target = PickMissing(store, q, 1, 10)[0];
  for (auto _ : state) {
    size_t rank = ComputeRankScan(store, q, target);
    benchmark::DoNotOptimize(rank);
  }
}
BENCHMARK(BM_RankComputation_Scan)->ArgName("N")->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace bench
}  // namespace yask

int main(int argc, char** argv) {
  yask::bench::PrintVerdictDistribution();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
