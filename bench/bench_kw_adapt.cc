// Experiments E8, E9 (runtime legs), E10 (DESIGN.md): the keyword-adapted
// why-not module.
//
// Regenerates the ICDE'16-style sweeps behind §3.3's keyword-adaption module:
// the KcR-tree bound-and-prune algorithm versus the basic baseline (exact
// rank by full scan per candidate), swept over k (E8), |q.doc| and |M| (E9),
// and dataset size N; pruning-effectiveness counters cover E10.
//
// Expected shape (paper): bound-and-prune beats basic by a widening margin as
// N and the candidate space (|q.doc| + |M.doc|) grow; most candidates die on
// bounds without exact rank computation.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/whynot/keyword_adaption.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace bench {
namespace {

void RunAdapt(benchmark::State& state, KwAdaptMode mode) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t k = static_cast<uint32_t>(state.range(1));
  const size_t m_count = static_cast<size_t>(state.range(2));
  const size_t query_keywords = static_cast<size_t>(state.range(3));
  const ObjectStore& store = SharedDataset(n);
  const LocalWhyNotOracle oracle(SharedCorpus(n));

  Rng rng(11);
  std::vector<std::pair<Query, std::vector<ObjectId>>> workload;
  while (workload.size() < 8) {
    Query q = MakeQuery(store, &rng, query_keywords, k);
    std::vector<ObjectId> missing = PickMissing(store, q, m_count);
    if (missing.size() == m_count) {
      workload.emplace_back(std::move(q), std::move(missing));
    }
  }

  KeywordAdaptOptions options;
  options.lambda = 0.5;
  options.mode = mode;

  size_t i = 0;
  double penalty_sum = 0.0;
  size_t generated = 0;
  size_t pruned = 0;
  size_t resolved = 0;
  size_t runs = 0;
  for (auto _ : state) {
    const auto& [q, missing] = workload[i++ % workload.size()];
    auto result = AdaptKeywords(oracle, q, missing, options);
    benchmark::DoNotOptimize(result);
    if (result.ok()) {
      penalty_sum += result->penalty.value;
      generated += result->stats.candidates_generated;
      pruned += result->stats.candidates_pruned_bounds +
                result->stats.candidates_pruned_floor;
      resolved += result->stats.candidates_resolved;
      ++runs;
    }
  }
  if (runs > 0) {
    state.counters["avg_penalty"] = benchmark::Counter(penalty_sum / runs);
    state.counters["candidates/query"] =
        benchmark::Counter(static_cast<double>(generated) / runs);
    state.counters["pruned_pct"] = benchmark::Counter(
        generated == 0 ? 0.0 : 100.0 * static_cast<double>(pruned) / generated);
    state.counters["resolved/query"] =
        benchmark::Counter(static_cast<double>(resolved) / runs);
  }
}

void BM_KwAdapt_BoundAndPrune(benchmark::State& state) {
  RunAdapt(state, KwAdaptMode::kBoundAndPrune);
}
void BM_KwAdapt_Basic(benchmark::State& state) {
  RunAdapt(state, KwAdaptMode::kBasic);
}

// E8: vary k at N = 100k (bound-and-prune) / 20k (basic).
BENCHMARK(BM_KwAdapt_BoundAndPrune)
    ->ArgNames({"N", "k", "M", "qkw"})
    ->Args({100000, 1, 1, 3})
    ->Args({100000, 5, 1, 3})
    ->Args({100000, 10, 1, 3})
    ->Args({100000, 20, 1, 3});
BENCHMARK(BM_KwAdapt_Basic)
    ->ArgNames({"N", "k", "M", "qkw"})
    ->Args({20000, 1, 1, 3})
    ->Args({20000, 10, 1, 3});

// E9 (runtime legs): vary |q.doc| and |M| at N = 100k, k = 10.
BENCHMARK(BM_KwAdapt_BoundAndPrune)
    ->ArgNames({"N", "k", "M", "qkw"})
    ->Args({100000, 10, 1, 1})
    ->Args({100000, 10, 1, 2})
    ->Args({100000, 10, 1, 4})
    ->Args({100000, 10, 1, 5})
    ->Args({100000, 10, 2, 3})
    ->Args({100000, 10, 3, 3});

// E10: scalability in N (pruning counters tell the effectiveness story).
BENCHMARK(BM_KwAdapt_BoundAndPrune)
    ->ArgNames({"N", "k", "M", "qkw"})
    ->Args({10000, 10, 1, 3})
    ->Args({20000, 10, 1, 3})
    ->Args({50000, 10, 1, 3})
    ->Args({200000, 10, 1, 3});
BENCHMARK(BM_KwAdapt_Basic)
    ->ArgNames({"N", "k", "M", "qkw"})
    ->Args({10000, 10, 1, 3});

}  // namespace
}  // namespace bench
}  // namespace yask

BENCHMARK_MAIN();
