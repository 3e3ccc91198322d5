#include "src/corpus/reshard.h"

#include <memory>
#include <utility>

#include "src/corpus/shard_router.h"
#include "src/corpus/sharded_corpus.h"
#include "src/storage/object_store.h"

namespace yask {

Result<ReshardReport> ReshardSnapshots(const std::string& in_prefix,
                                       const std::string& out_prefix,
                                       const ReshardOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("reshard: output shard count must be >= 1");
  }
  if (in_prefix == out_prefix) {
    return Status::InvalidArgument(
        "reshard: output prefix equals input prefix — the old layout must "
        "survive until the new one is validated and cut over to");
  }

  // The input indexes are never queried here, so skip rebuilding any the
  // files lack; the output shards get fresh indexes per options.corpus.
  CorpusOptions load_options;
  load_options.build_kcr_tree = false;
  Result<ShardedCorpus> loaded = ShardedCorpus::Load(in_prefix, load_options);
  if (!loaded.ok()) {
    return Status(loaded.status().code(),
                  "reshard: loading '" + in_prefix +
                      "': " + loaded.status().message());
  }
  const ShardedCorpus& in = *loaded;

  // Rebuild the global store: ascending global id order with the input's own
  // vocabulary instance reproduces the pre-partition corpus exactly (bounds
  // accumulation order, term ids, D6 id-order ties — see the header).
  ObjectStore store(in.shard(0).store().shared_vocab());
  store.Reserve(in.size());
  for (ObjectId global = 0; global < in.size(); ++global) {
    store.Add(in.Object(global));
  }

  std::unique_ptr<ShardRouter> router;
  if (options.router == "grid") {
    router = GridShardRouter::Fit(store, options.num_shards);
  } else if (options.router == "hash") {
    router = std::make_unique<HashShardRouter>(options.num_shards);
  } else {
    return Status::InvalidArgument("reshard: unknown router '" +
                                   options.router + "' (want grid or hash)");
  }

  ReshardReport report;
  report.from_shards = static_cast<uint32_t>(in.num_shards());
  report.to_shards = options.num_shards;
  report.objects = store.size();
  report.router = router->Describe();

  const ShardedCorpus out =
      ShardedCorpus::Partition(store, std::move(router), options.corpus);
  Result<uint64_t> bytes = out.Save(out_prefix);
  if (!bytes.ok()) {
    return Status(bytes.status().code(), "reshard: saving '" + out_prefix +
                                             "': " + bytes.status().message());
  }
  report.bytes_written = *bytes;
  return report;
}

}  // namespace yask
