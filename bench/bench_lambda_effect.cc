// Experiment E6 + the quality leg of E9 (DESIGN.md): the impact of λ.
//
// §4 of the paper: "we are able to ... demonstrate the impact of the setting
// of weight parameter λ in the penalty functions (Eqns. (3) and (4)) on the
// quality of refined queries."
//
// This binary prints, for both refinement models, how λ redistributes the
// refinement between enlarging k (∆k) and modifying the query (∆w / ∆doc),
// averaged over a fixed workload — the quality table the demo discusses —
// and additionally times one representative λ sweep via google-benchmark.
//
// Expected shape: as λ grows, ∆k shrinks toward 0 while ∆w / ∆doc grow; the
// total penalty is NOT monotone in λ (it re-weights two normalised terms).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/whynot/keyword_adaption.h"
#include "src/whynot/preference_adjustment.h"
#include "src/whynot/whynot_oracle.h"

namespace yask {
namespace bench {
namespace {

constexpr size_t kN = 50000;
constexpr uint32_t kK = 10;
constexpr size_t kWorkload = 12;

struct Row {
  double lambda;
  double pref_penalty, pref_dk, pref_dw;
  double kw_penalty, kw_dk, kw_ddoc;
};

Row MeasureLambda(double lambda) {
  const ObjectStore& store = SharedDataset(kN);
  const LocalWhyNotOracle oracle(SharedCorpus(kN));
  Rng rng(23);
  Row row{lambda, 0, 0, 0, 0, 0, 0};
  size_t runs = 0;
  while (runs < kWorkload) {
    Query q = MakeQuery(store, &rng, 3, kK);
    const std::vector<ObjectId> missing = PickMissing(store, q, 1);
    if (missing.empty()) continue;

    PreferenceAdjustOptions po;
    po.lambda = lambda;
    auto pref = AdjustPreference(oracle, q, missing, po);
    KeywordAdaptOptions ko;
    ko.lambda = lambda;
    auto kw = AdaptKeywords(oracle, q, missing, ko);
    if (!pref.ok() || !kw.ok() || pref->already_in_result) continue;

    row.pref_penalty += pref->penalty.value;
    row.pref_dk += static_cast<double>(pref->penalty.delta_k);
    row.pref_dw += pref->penalty.delta_w;
    row.kw_penalty += kw->penalty.value;
    row.kw_dk += static_cast<double>(kw->penalty.delta_k);
    row.kw_ddoc += static_cast<double>(kw->penalty.delta_doc);
    ++runs;
  }
  row.pref_penalty /= runs;
  row.pref_dk /= runs;
  row.pref_dw /= runs;
  row.kw_penalty /= runs;
  row.kw_dk /= runs;
  row.kw_ddoc /= runs;
  return row;
}

void PrintLambdaTable() {
  std::printf(
      "\n=== E6: impact of λ on refined-query quality "
      "(N=%zu, k=%u, avg over %zu why-not questions) ===\n",
      kN, kK, kWorkload);
  std::printf("%-8s | %-30s | %-30s\n", "lambda",
              "preference: penalty  dk   dw", "keyword: penalty  dk   ddoc");
  std::printf("---------+--------------------------------+------------------"
              "------------\n");
  for (double lambda : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const Row r = MeasureLambda(lambda);
    std::printf("%-8.1f | %9.4f  %6.2f  %7.4f    | %9.4f  %6.2f  %6.2f\n",
                r.lambda, r.pref_penalty, r.pref_dk, r.pref_dw, r.kw_penalty,
                r.kw_dk, r.kw_ddoc);
  }
  std::printf(
      "(expected: dk falls and dw/ddoc rise as lambda grows; E6/E9)\n\n");
}

void BM_LambdaSweep_Preference(benchmark::State& state) {
  const double lambda = static_cast<double>(state.range(0)) / 10.0;
  const ObjectStore& store = SharedDataset(kN);
  const LocalWhyNotOracle oracle(SharedCorpus(kN));
  Rng rng(29);
  Query q = MakeQuery(store, &rng, 3, kK);
  std::vector<ObjectId> missing = PickMissing(store, q, 1);
  PreferenceAdjustOptions options;
  options.lambda = lambda;
  for (auto _ : state) {
    auto result = AdjustPreference(oracle, q, missing, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_LambdaSweep_Preference)
    ->ArgName("lambda_x10")
    ->Arg(1)
    ->Arg(5)
    ->Arg(9);

}  // namespace
}  // namespace bench
}  // namespace yask

int main(int argc, char** argv) {
  yask::bench::PrintLambdaTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
