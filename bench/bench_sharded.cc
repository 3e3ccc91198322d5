// Experiment E11: parallel fan-out/merge top-k over a ShardedCorpus.
//
// Partitions the shared benchmark dataset into 1/2/4/8 spatial-grid shards
// and runs the same randomized top-k workload through the sharded top-k at
// each shard count. Every sharded result is cross-checked for exact
// equality against the unsharded SetRTopKEngine — the fan-out merge must be
// bit-identical, so a fast-but-wrong configuration fails the run (non-zero
// exit) rather than entering the perf trajectory.
//
// Two timings per configuration:
//   * wall      — ShardedWhyNotOracle::TopK on this host as-is (home-shard
//                 search + thresholded fan-out; parallel when the host has
//                 cores for it, sequential with threshold refinement when
//                 it does not).
//   * scatter   — the scatter-gather deployment model: every shard searches
//                 concurrently on its own core/node (a shard snapshot file
//                 is the shippable unit), so per-query latency is the MAX of
//                 the per-shard full search times plus the coordinator
//                 merge. Each shard search is timed individually; no
//                 parallel hardware is required to measure it. On a 1-core
//                 CI host this is the number that reflects what the sharding
//                 layer buys a real deployment; on a multicore host `wall`
//                 converges toward it.
//
// The speedup_4_shards_vs_1 context key reports the scatter model
// (speedup_metric records that); wall speedups are reported alongside.
//
// Like bench_snapshot this is a standalone harness (no google-benchmark):
// it emits the machine-readable BENCH_sharded.json in google-benchmark's
// JSON shape so existing tooling parses it.
//
//   $ ./bench_sharded [--n=200000] [--queries=300] [--json=BENCH_sharded.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/corpus/sharded_corpus.h"
#include "src/corpus/sharded_whynot_oracle.h"
#include "src/server/json.h"

namespace yask {
namespace bench {
namespace {

constexpr int kReps = 3;  // Best-of for each timed workload pass.

struct ShardRun {
  size_t shards = 0;
  double wall_ms = 0.0;     // Best-of-kReps wall for the whole workload.
  double scatter_ms = 0.0;  // Sum over queries of max-per-shard search time.
  bool results_match = true;
};

std::vector<Query> MakeWorkload(const ObjectStore& store, size_t count) {
  Rng rng(kDatasetSeed + 1);
  std::vector<Query> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    queries.push_back(MakeQuery(store, &rng, /*num_keywords=*/3, /*k=*/10));
  }
  return queries;
}

}  // namespace
}  // namespace bench
}  // namespace yask

int main(int argc, char** argv) {
  using namespace yask;
  using namespace yask::bench;

  size_t n = 200000;
  size_t num_queries = 300;
  std::string json_path = "BENCH_sharded.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) == 0) {
      n = static_cast<size_t>(std::strtoull(arg.c_str() + 4, nullptr, 10));
    } else if (arg.rfind("--queries=", 0) == 0) {
      num_queries =
          static_cast<size_t>(std::strtoull(arg.c_str() + 10, nullptr, 10));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "usage: %s [--n=N] [--queries=Q] [--json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // The unsharded baseline engine and the reference answers.
  const Corpus& baseline = SharedCorpus(n);
  const ObjectStore& store = baseline.store();
  const SetRTopKEngine baseline_engine = baseline.topk();
  const std::vector<Query> workload = MakeWorkload(store, num_queries);
  std::vector<TopKResult> expected;
  expected.reserve(workload.size());
  double baseline_ms = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    expected.clear();
    Timer timer;
    for (const Query& q : workload) {
      expected.push_back(baseline_engine.Query(q));
    }
    baseline_ms = std::min(baseline_ms, timer.ElapsedMillis());
  }

  std::printf("n=%zu objects, %zu queries (k=10, 3 keywords), host cores=%u\n",
              n, workload.size(), std::thread::hardware_concurrency());
  std::printf("%-16s %11s %9s %11s %9s  %s\n", "engine", "wall ms/q",
              "wall qps", "scatter ms", "sct qps", "exact");
  std::printf("%-16s %11.4f %9.0f %11s %9s  %s\n", "unsharded SetR",
              baseline_ms / workload.size(),
              1000.0 * workload.size() / baseline_ms, "-", "-", "ref");

  std::vector<ShardRun> runs;
  CorpusOptions shard_options;
  shard_options.build_kcr_tree = false;  // Top-k needs only the SetR-trees.
  for (const size_t shards : {1, 2, 4, 8}) {
    const ShardedCorpus sharded = ShardedCorpus::Partition(
        store, GridShardRouter::Fit(store, static_cast<uint32_t>(shards)),
        shard_options);
    const ShardedWhyNotOracle engine(sharded);

    ShardRun run;
    run.shards = shards;
    // Warm-up pass doubling as the correctness gate: every query must
    // reproduce the unsharded result bit-for-bit (ids and scores).
    for (size_t i = 0; i < workload.size(); ++i) {
      if (engine.TopK(workload[i]) != expected[i]) {
        run.results_match = false;
      }
    }

    // (a) Wall time of the fan-out engine on this host.
    run.wall_ms = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      Timer timer;
      for (const Query& q : workload) {
        engine.TopK(q);
      }
      run.wall_ms = std::min(run.wall_ms, timer.ElapsedMillis());
    }

    // (b) Scatter-gather model: every shard searches concurrently on its
    // own core/node, so per-query latency is the slowest shard's full
    // search plus the merge. Each shard is timed individually — correct on
    // any host, parallel or not.
    std::vector<SetRTopKEngine> shard_engines;
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      shard_engines.emplace_back(sharded.shard(s).store(),
                                 sharded.shard(s).setr());
      shard_engines.back().set_dist_norm(sharded.dist_norm());
    }
    run.scatter_ms = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      double total = 0.0;
      std::vector<TopKResult> parts(sharded.num_shards());
      for (const Query& q : workload) {
        double slowest = 0.0;
        for (size_t s = 0; s < sharded.num_shards(); ++s) {
          Timer shard_timer;
          parts[s] = shard_engines[s].Query(q);
          slowest = std::max(slowest, shard_timer.ElapsedMillis());
        }
        // The coordinator's merge runs after the slowest shard returns.
        Timer merge_timer;
        TopKResult merged;
        for (size_t s = 0; s < sharded.num_shards(); ++s) {
          for (const ScoredObject& so : parts[s]) {
            merged.push_back(
                ScoredObject{sharded.ToGlobal(s, so.id), so.score});
          }
        }
        std::sort(merged.begin(), merged.end());
        if (merged.size() > q.k) merged.resize(q.k);
        total += slowest + merge_timer.ElapsedMillis();
      }
      run.scatter_ms = std::min(run.scatter_ms, total);
    }
    runs.push_back(run);

    std::printf("%-16s %11.4f %9.0f %11.4f %9.0f  %s\n",
                ("sharded/" + std::to_string(shards)).c_str(),
                run.wall_ms / workload.size(),
                1000.0 * workload.size() / run.wall_ms,
                run.scatter_ms / workload.size(),
                1000.0 * workload.size() / run.scatter_ms,
                run.results_match ? "yes" : "NO — BUG");
  }

  const ShardRun* one = nullptr;
  const ShardRun* four = nullptr;
  for (const ShardRun& r : runs) {
    if (r.shards == 1) one = &r;
    if (r.shards == 4) four = &r;
  }
  const double scatter_speedup =
      (one != nullptr && four != nullptr) ? one->scatter_ms / four->scatter_ms
                                          : 0.0;
  const double wall_speedup =
      (one != nullptr && four != nullptr) ? one->wall_ms / four->wall_ms : 0.0;
  std::printf("\n4-shard vs 1-shard throughput: %.2fx scatter-gather model, "
              "%.2fx wall on this %u-core host\n",
              scatter_speedup, wall_speedup,
              std::thread::hardware_concurrency());

  bool all_match = true;
  for (const ShardRun& r : runs) all_match = all_match && r.results_match;

  JsonValue context = JsonValue::MakeObject();
  context.Set("bench", JsonValue("sharded"));
  context.Set("n", JsonValue(n));
  context.Set("queries", JsonValue(workload.size()));
  context.Set("host_hardware_concurrency",
              JsonValue(static_cast<size_t>(
                  std::thread::hardware_concurrency())));
  context.Set("speedup_4_shards_vs_1", JsonValue(scatter_speedup));
  context.Set("speedup_metric",
              JsonValue("scatter_gather_latency_model (one core/node per "
                        "shard; per-shard searches timed individually)"));
  context.Set("wall_speedup_4_shards_vs_1", JsonValue(wall_speedup));
  context.Set("results_match", JsonValue(all_match));

  JsonValue benches = JsonValue::MakeArray();
  auto bench_row = [&](const std::string& name, double ms_per_query) {
    JsonValue row = JsonValue::MakeObject();
    row.Set("name", JsonValue(name));
    row.Set("run_type", JsonValue("iteration"));
    row.Set("iterations", JsonValue(workload.size()));
    row.Set("real_time", JsonValue(ms_per_query));
    row.Set("cpu_time", JsonValue(ms_per_query));
    row.Set("time_unit", JsonValue("ms"));
    row.Set("items_per_second", JsonValue(1000.0 / ms_per_query));
    benches.Append(std::move(row));
  };
  const std::string suffix = "/" + std::to_string(n);
  bench_row("sharded/topk_unsharded" + suffix, baseline_ms / workload.size());
  for (const ShardRun& r : runs) {
    const std::string shard_tag = "/shards:" + std::to_string(r.shards);
    bench_row("sharded/topk_wall" + shard_tag + suffix,
              r.wall_ms / workload.size());
    bench_row("sharded/topk_scatter" + shard_tag + suffix,
              r.scatter_ms / workload.size());
  }

  JsonValue doc = JsonValue::MakeObject();
  doc.Set("context", std::move(context));
  doc.Set("benchmarks", std::move(benches));

  std::ofstream out(json_path, std::ios::trunc);
  out << doc.Dump() << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  // A fast-but-wrong merge must fail loudly, exactly like bench_snapshot.
  return all_match ? 0 : 1;
}
