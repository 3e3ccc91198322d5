// Experiments E4, E5, E7 (DESIGN.md): the preference-adjusted why-not module.
//
// Regenerates the ICDE'15-style sweeps behind §3.3's preference-adjustment
// module: optimized (score-plane index + penalty-floor pruning) versus the
// basic baseline (crossing enumeration + full rescan per candidate), swept
// over k (E4), the number of missing objects |M| (E5) and the dataset size N
// (E7).
//
// Expected shape (paper): optimized beats basic by 1-3 orders of magnitude
// and the gap widens with N; runtimes grow mildly with k and |M|.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/whynot/preference_adjustment.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace bench {
namespace {

void RunAdjust(benchmark::State& state, PrefAdjustMode mode) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint32_t k = static_cast<uint32_t>(state.range(1));
  const size_t m_count = static_cast<size_t>(state.range(2));
  const ObjectStore& store = SharedDataset(n);
  const LocalWhyNotOracle oracle(SharedCorpus(n));

  // Pre-generate a deterministic workload of (query, missing) pairs.
  Rng rng(7);
  std::vector<std::pair<Query, std::vector<ObjectId>>> workload;
  while (workload.size() < 8) {
    Query q = MakeQuery(store, &rng, 3, k);
    std::vector<ObjectId> missing = PickMissing(store, q, m_count);
    if (missing.size() == m_count) {
      workload.emplace_back(std::move(q), std::move(missing));
    }
  }

  PreferenceAdjustOptions options;
  options.lambda = 0.5;
  options.mode = mode;

  size_t i = 0;
  double penalty_sum = 0.0;
  size_t crossings = 0;
  size_t runs = 0;
  for (auto _ : state) {
    const auto& [q, missing] = workload[i++ % workload.size()];
    auto result = AdjustPreference(oracle, q, missing, options);
    benchmark::DoNotOptimize(result);
    if (result.ok()) {
      penalty_sum += result->penalty.value;
      crossings += result->stats.crossings_found;
      ++runs;
    }
  }
  if (runs > 0) {
    state.counters["avg_penalty"] = benchmark::Counter(penalty_sum / runs);
    state.counters["crossings/query"] =
        benchmark::Counter(static_cast<double>(crossings) / runs);
  }
}

void BM_PrefAdjust_Optimized(benchmark::State& state) {
  RunAdjust(state, PrefAdjustMode::kOptimized);
}
void BM_PrefAdjust_Basic(benchmark::State& state) {
  RunAdjust(state, PrefAdjustMode::kBasic);
}

// E4: vary k at N = 100k (optimized) / 20k (basic: quadratic, kept small).
BENCHMARK(BM_PrefAdjust_Optimized)
    ->ArgNames({"N", "k", "M"})
    ->Args({100000, 1, 1})
    ->Args({100000, 5, 1})
    ->Args({100000, 10, 1})
    ->Args({100000, 20, 1})
    ->Args({100000, 50, 1});
BENCHMARK(BM_PrefAdjust_Basic)
    ->ArgNames({"N", "k", "M"})
    ->Args({20000, 1, 1})
    ->Args({20000, 10, 1})
    ->Args({20000, 50, 1});

// E5: vary |M| at N = 100k, k = 10.
BENCHMARK(BM_PrefAdjust_Optimized)
    ->ArgNames({"N", "k", "M"})
    ->Args({100000, 10, 2})
    ->Args({100000, 10, 3})
    ->Args({100000, 10, 4});

// E7: vary N at k = 10, |M| = 1 (head-to-head at equal N where feasible).
BENCHMARK(BM_PrefAdjust_Optimized)
    ->ArgNames({"N", "k", "M"})
    ->Args({10000, 10, 1})
    ->Args({20000, 10, 1})
    ->Args({50000, 10, 1})
    ->Args({200000, 10, 1});
BENCHMARK(BM_PrefAdjust_Basic)
    ->ArgNames({"N", "k", "M"})
    ->Args({10000, 10, 1});

}  // namespace
}  // namespace bench
}  // namespace yask

BENCHMARK_MAIN();
