// Experiment E3 (DESIGN.md): index construction cost and footprint.
//
// Regenerates the index substrate comparison: STR bulk load cost for the
// plain R-tree, the SetR-tree and the KcR-tree (the only way the trees are
// built: they are immutable afterwards), plus the inverted index of the E2
// baseline, with the per-index memory footprint as counters.
//
// Expected shape: the KcR-tree costs the most memory (keyword->count maps at
// every node), the plain R-tree the least.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace yask {
namespace bench {
namespace {

template <typename Tree>
void BuildBulk(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ObjectStore& store = SharedDataset(n);
  size_t mem = 0;
  for (auto _ : state) {
    Tree tree(&store);
    tree.BulkLoad();
    benchmark::DoNotOptimize(tree.root());
    mem = tree.MemoryUsageBytes();
  }
  state.counters["bytes"] = benchmark::Counter(static_cast<double>(mem));
  state.counters["bytes/object"] =
      benchmark::Counter(static_cast<double>(mem) / n);
}

void BM_Build_RTree_Bulk(benchmark::State& state) { BuildBulk<RTree>(state); }
void BM_Build_SetR_Bulk(benchmark::State& state) { BuildBulk<SetRTree>(state); }
void BM_Build_KcR_Bulk(benchmark::State& state) { BuildBulk<KcRTree>(state); }
BENCHMARK(BM_Build_RTree_Bulk)->ArgName("N")->Arg(10000)->Arg(100000);
BENCHMARK(BM_Build_SetR_Bulk)->ArgName("N")->Arg(10000)->Arg(100000);
BENCHMARK(BM_Build_KcR_Bulk)->ArgName("N")->Arg(10000)->Arg(100000);

void BM_Build_InvertedIndex(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ObjectStore& store = SharedDataset(n);
  size_t mem = 0;
  for (auto _ : state) {
    InvertedIndex index(store);
    benchmark::DoNotOptimize(index.Postings(0).data());
    mem = index.MemoryUsageBytes();
  }
  state.counters["bytes"] = benchmark::Counter(static_cast<double>(mem));
}
BENCHMARK(BM_Build_InvertedIndex)->ArgName("N")->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace bench
}  // namespace yask

BENCHMARK_MAIN();
