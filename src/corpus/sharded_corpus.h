// Copyright (c) 2026 The YASK reproduction authors.
// ShardedCorpus: N Corpus shards partitioned by a ShardRouter. Top-k and
// why-not run over it through ShardedWhyNotOracle (src/corpus/
// sharded_whynot_oracle.h), which fans a query out to every shard and merges
// per-shard results into an answer bit-identical to an unsharded corpus's.
//
// Exactness argument (see docs/architecture.md):
//  * every shard scores with the *global* SDist normaliser (the diagonal of
//    the whole dataset's MBR) and the shared vocabulary's term ids, so a
//    given object's score is the same doubles-arithmetic in both layouts;
//  * objects enter shard stores in ascending global id order, so local id
//    order equals global id order within a shard and per-shard D6 ordering
//    is the global D6 ordering restricted to the shard;
//  * each shard returns its best min(k, |shard|) objects; the global top-k
//    is a subset of the union of those, and re-sorting the union under the
//    ScoredObject ordering (score desc, global id asc) reproduces the
//    unsharded result exactly — ties and all;
//  * execution is threshold-broadcast fan-out: the query's home shard (the
//    one whose tree MBR is nearest the query point) is searched first and
//    its k-th score is handed to the other shards as a prune threshold,
//    which only ever skips strictly-worse candidates — far shards usually
//    stop at their root, so a fan-out costs about one small-tree search.
//
// Persistence: Save() writes one snapshot file per shard (store + indexes +
// a ShardManifest section); a shard file is the shippable unit — a remote
// process can serve its shard from that file alone, and Load() reassembles
// the full ShardedCorpus from the N files.

#ifndef YASK_CORPUS_SHARDED_CORPUS_H_
#define YASK_CORPUS_SHARDED_CORPUS_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/corpus/corpus.h"
#include "src/corpus/shard_router.h"

namespace yask {

/// N-way partitioned serving state. Movable, not copyable.
class ShardedCorpus {
 public:
  /// Partitions `source` by `router` (each shard becomes a Corpus built
  /// with `options`). Shard stores share the source's vocabulary instance.
  /// The source store itself is not retained.
  static ShardedCorpus Partition(const ObjectStore& source,
                                 std::unique_ptr<ShardRouter> router,
                                 const CorpusOptions& options = {});

  ShardedCorpus(ShardedCorpus&&) = default;
  ShardedCorpus& operator=(ShardedCorpus&&) = default;

  size_t num_shards() const { return shards_.size(); }
  const Corpus& shard(size_t index) const { return shards_[index]; }

  /// Total objects across all shards.
  size_t size() const { return locate_.size(); }

  const Vocabulary& vocab() const { return shards_[0].vocab(); }

  /// MBR of the whole partitioned dataset and its diagonal — the SDist
  /// normaliser every shard engine must use (Eqn. (1) normalises by the
  /// dataset MBR, which sharding must not change).
  const Rect& bounds() const { return bounds_; }
  double dist_norm() const { return dist_norm_; }

  /// Global id of shard-local object `local` in shard `shard_index`.
  ObjectId ToGlobal(size_t shard_index, ObjectId local) const {
    return to_global_[shard_index][local];
  }
  const std::vector<ObjectId>& shard_global_ids(size_t shard_index) const {
    return to_global_[shard_index];
  }

  /// The object with a global id. Note: the returned object's `.id` field is
  /// its shard-local id; use the global id you passed for identity.
  const SpatialObject& Object(ObjectId global_id) const {
    const auto& [shard_index, local] = locate_[global_id];
    return shards_[shard_index].store().Get(local);
  }

  /// First object whose name matches, as a global id; kInvalidObject if none.
  ObjectId FindByName(const std::string& name) const;

  /// The placement policy's description ("grid 2x2 ..."); survives
  /// Save()/Load() via the manifest. The router object itself does not (it
  /// is only needed to place objects, which a loaded corpus never does).
  const std::string& router_description() const { return router_desc_; }

  /// One snapshot file per shard: ShardFilePath(prefix, i) for each i.
  /// Returns the total bytes written.
  Result<uint64_t> Save(const std::string& prefix) const;

  /// "<prefix>.shard-<index>.snap".
  static std::string ShardFilePath(const std::string& prefix, uint32_t index);

  /// The worker pool every fan-out engine over this corpus shares
  /// (every ShardedWhyNotOracle — /query and /whynot alike), sized
  /// by the CorpusOptions::fanout_threads passed to Partition()/Load() and
  /// clamped to the shard count. Created lazily on first call (thread-safe),
  /// so a corpus that is only built and saved — dataset_tool build-shards —
  /// never spins up workers. Null when fan-outs should run inline on the
  /// calling thread: single-shard corpora, and single-core hosts unless a
  /// thread count was forced.
  ThreadPool* pool() const;

  /// Reassembles a partitioned corpus from the files Save() wrote. The shard
  /// count comes from shard 0's manifest; every file's manifest is
  /// cross-checked (index, count, bounds, and that the global ids tile
  /// 0..total-1 exactly). Indexes missing from a file are rebuilt per
  /// `options`.
  static Result<ShardedCorpus> Load(const std::string& prefix,
                                    const CorpusOptions& options = {});

 private:
  ShardedCorpus() = default;

  std::vector<Corpus> shards_;
  /// Per shard: local id -> global id (strictly ascending).
  std::vector<std::vector<ObjectId>> to_global_;
  /// Global id -> (shard, local id).
  std::vector<std::pair<uint32_t, ObjectId>> locate_;
  Rect bounds_ = Rect::Empty();
  double dist_norm_ = 0.0;
  std::string router_desc_;
  std::unique_ptr<ShardRouter> router_;  // Null after Load().
  /// Lazy shared fan-out pool (see pool()); the mutex lives behind a
  /// unique_ptr to keep the corpus movable.
  size_t fanout_threads_ = 0;  // CorpusOptions::fanout_threads (0 = auto).
  std::unique_ptr<std::mutex> pool_mu_ = std::make_unique<std::mutex>();
  mutable bool pool_decided_ = false;
  mutable std::unique_ptr<ThreadPool> pool_;  // Null: fan-outs run inline.
};

}  // namespace yask

#endif  // YASK_CORPUS_SHARDED_CORPUS_H_
