#include "src/corpus/corpus.h"

#include <utility>

namespace yask {

Result<uint64_t> Corpus::Save(const std::string& path,
                              const ShardManifest* shard) const {
  return WriteSnapshot(path, *store_, setr_.get(), kcr_.get(), shard);
}

Corpus CorpusBuilder::Build(ObjectStore store) const {
  Corpus corpus;
  corpus.store_ = std::make_unique<ObjectStore>(std::move(store));
  corpus.setr_ = std::make_unique<SetRTree>(corpus.store_.get(),
                                            options_.rtree);
  corpus.setr_->BulkLoad();
  if (options_.build_kcr_tree) {
    corpus.kcr_ = std::make_unique<KcRTree>(corpus.store_.get(),
                                            options_.rtree);
    corpus.kcr_->BulkLoad();
  }
  return corpus;
}

Result<Corpus> CorpusBuilder::FromSnapshot(
    const std::string& path,
    std::unique_ptr<ShardManifest>* manifest_out) const {
  Result<SnapshotBundle> bundle = LoadSnapshot(path);
  if (!bundle.ok()) return bundle.status();

  Corpus corpus;
  corpus.store_ = std::move(bundle->store);
  if (bundle->setr != nullptr) {
    corpus.setr_ = std::move(bundle->setr);
  } else {
    corpus.setr_ = std::make_unique<SetRTree>(corpus.store_.get(),
                                              options_.rtree);
    corpus.setr_->BulkLoad();
  }
  if (bundle->kcr != nullptr) {
    corpus.kcr_ = std::move(bundle->kcr);
  } else if (options_.build_kcr_tree) {
    corpus.kcr_ = std::make_unique<KcRTree>(corpus.store_.get(),
                                            options_.rtree);
    corpus.kcr_->BulkLoad();
  }
  if (manifest_out != nullptr) {
    *manifest_out = std::move(bundle->shard);
  } else if (bundle->shard != nullptr) {
    return Status::InvalidArgument(
        path + " is one shard of a " +
        std::to_string(bundle->shard->shard_count) +
        "-way partitioned corpus; load it with ShardedCorpus::Load");
  }
  return corpus;
}

}  // namespace yask
