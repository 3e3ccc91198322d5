// Copyright (c) 2026 The YASK reproduction authors.
// Corpus: one shard's serving state as a first-class owned object.
//
// Before this layer existed, every binary that wanted to serve queries —
// the server demo, each benchmark, the integration tests, YaskService —
// hand-assembled the same four pieces (ObjectStore + Vocabulary + SetR-tree
// + KcR-tree) and wired them together with borrowed references. A Corpus
// owns all of it: the store (which owns the shared vocabulary) plus the
// indexes built over it, with stable addresses (the store lives behind a
// unique_ptr, so moving a Corpus never invalidates the trees' store
// pointers). The indexes are read-only once built.
//
// Build one with CorpusBuilder — from raw objects (bulk-loads the indexes)
// or from a snapshot file (adopts the serialized arenas; missing indexes are
// rebuilt). Save() writes the whole serving state back to one snapshot file;
// for a partitioned corpus the per-shard file is the shippable unit (see
// sharded_corpus.h).

#ifndef YASK_CORPUS_CORPUS_H_
#define YASK_CORPUS_CORPUS_H_

#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/index/kcr_tree.h"
#include "src/index/setr_tree.h"
#include "src/query/topk_engine.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/storage/object_store.h"

namespace yask {

/// What CorpusBuilder builds (and what Save() persists).
struct CorpusOptions {
  /// The SetR-tree is mandatory (the top-k engine runs on it); the KcR-tree
  /// powers keyword adaption.
  bool build_kcr_tree = true;
  RTreeOptions rtree;
  /// Worker threads of the fan-out pool a ShardedCorpus built with these
  /// options owns (every ShardedWhyNotOracle over it shares that one pool;
  /// it is created lazily on first use). 0 = auto: one thread per
  /// shard capped by the hardware concurrency, and no pool at all on a
  /// single-core host or a single-shard corpus (fan-outs then run inline,
  /// which is strictly better there). Forced values are clamped to the
  /// shard count — more workers than shards can never help. Ignored by
  /// standalone Corpus builds; not persisted in snapshots.
  size_t fanout_threads = 0;
};

/// One shard's store + indexes, owned. Movable, not copyable.
class Corpus {
 public:
  Corpus(Corpus&&) = default;
  Corpus& operator=(Corpus&&) = default;

  const ObjectStore& store() const { return *store_; }
  const Vocabulary& vocab() const { return store_->vocab(); }
  const SetRTree& setr() const { return *setr_; }

  bool has_kcr() const { return kcr_ != nullptr; }
  /// Requires has_kcr().
  const KcRTree& kcr() const { return *kcr_; }

  size_t size() const { return store_->size(); }

  /// A top-k engine over this corpus. The engine borrows; the corpus must
  /// outlive it.
  SetRTopKEngine topk() const { return SetRTopKEngine(*store_, *setr_); }

  /// Serialises the whole serving state (store + vocabulary + every built
  /// index) into one snapshot file. `shard` tags the file as one shard of a
  /// partitioned corpus (ShardedCorpus::Save passes it; standalone corpora
  /// leave it null). Returns the file size in bytes.
  Result<uint64_t> Save(const std::string& path,
                        const ShardManifest* shard = nullptr) const;

 private:
  friend class CorpusBuilder;
  friend class ShardedCorpus;
  Corpus() = default;

  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<SetRTree> setr_;
  std::unique_ptr<KcRTree> kcr_;
};

/// Builds Corpus instances from raw objects or snapshot files.
///
///   Corpus corpus = CorpusBuilder().Build(GenerateHotelDataset());
///   Result<Corpus> restored = CorpusBuilder().FromSnapshot("state.snap");
class CorpusBuilder {
 public:
  CorpusBuilder() = default;
  explicit CorpusBuilder(CorpusOptions options) : options_(options) {}

  CorpusBuilder& set_options(const CorpusOptions& options) {
    options_ = options;
    return *this;
  }
  const CorpusOptions& options() const { return options_; }

  /// Takes ownership of the store and bulk-loads the configured indexes.
  Corpus Build(ObjectStore store) const;

  /// Restores a corpus from a snapshot file (standalone or per-shard).
  /// Indexes present in the file are adopted; the SetR-tree (always) and the
  /// KcR-tree (when options ask for it) are rebuilt if the file lacks them.
  /// When `manifest_out` is non-null, a per-shard file's manifest is moved
  /// there (callers that expect a standalone file can reject it).
  Result<Corpus> FromSnapshot(
      const std::string& path,
      std::unique_ptr<ShardManifest>* manifest_out = nullptr) const;

 private:
  CorpusOptions options_;
};

}  // namespace yask

#endif  // YASK_CORPUS_CORPUS_H_
