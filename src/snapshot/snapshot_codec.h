// Copyright (c) 2026 The YASK reproduction authors.
// Per-component Save/Load codecs plus the whole-server bundle API.
//
// A snapshot captures the server's warm state — the object table D, the
// shared Vocabulary, and the SetR-tree / KcR-tree built over it — so a
// restarting process (or a new replica) loads it in one sequential pass
// instead of re-interning, re-sorting and re-summarising.
//
// Sharing discipline: the vocabulary is serialised exactly once (its own
// section); LoadSnapshot() deserialises it first and hands the *same*
// shared_ptr<Vocabulary> to the restored ObjectStore, so no token is ever
// re-interned and term ids are bit-identical to the saved process.
//
// R-tree encoding: node structure (leaf flags + child/object ids) and node
// summaries are stored; rects and parent pointers are reconstructed from the
// store's points while decoding (children are written before parents), which
// halves the file size and still skips the expensive part of a rebuild — the
// STR sorts and the bottom-up keyword-set/count-map merges.

#ifndef YASK_SNAPSHOT_SNAPSHOT_CODEC_H_
#define YASK_SNAPSHOT_SNAPSHOT_CODEC_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/geometry.h"
#include "src/common/status.h"
#include "src/common/vocabulary.h"
#include "src/index/kcr_tree.h"
#include "src/index/setr_tree.h"
#include "src/snapshot/snapshot_io.h"
#include "src/storage/object_store.h"

namespace yask {

// --- Component codecs --------------------------------------------------------
// Save* appends one section payload; Load* decodes one. Loaders never crash
// on corrupt bytes: they validate counts, id ranges and invariants and
// return InvalidArgument.

void SaveVocabulary(const Vocabulary& vocab, BufWriter* out);
Status LoadVocabulary(BufReader* in, Vocabulary* vocab);

/// Objects only; the vocabulary travels in its own section. `store` passed
/// to the loader must be freshly constructed over the already-loaded shared
/// vocabulary (that is the no-re-interning guarantee).
void SaveObjectStore(const ObjectStore& store, BufWriter* out);
Status LoadObjectStore(BufReader* in, ObjectStore* store);

/// The tree passed to a loader must be freshly constructed over the restored
/// store; its arena is replaced wholesale (RTreeT::AdoptArena).
void SaveSetRTree(const SetRTree& tree, BufWriter* out);
Status LoadSetRTree(BufReader* in, SetRTree* tree);

void SaveKcRTree(const KcRTree& tree, BufWriter* out);
Status LoadKcRTree(BufReader* in, KcRTree* tree);

// --- Shard manifest ----------------------------------------------------------

/// Extra section of a per-shard snapshot file: everything a loader needs to
/// reassemble a ShardedCorpus from N shard files. `global_ids[i]` is the
/// global ObjectId of the shard store's local object i (strictly ascending —
/// shards are filled in global id order). `global_bounds` is the MBR of the
/// *whole* partitioned dataset; its diagonal is the SDist normaliser that
/// keeps per-shard scores bit-identical to an unsharded corpus.
struct ShardManifest {
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  Rect global_bounds = Rect::Empty();
  std::vector<ObjectId> global_ids;
  /// Human-readable router description ("grid 2x2", "hash"); informational.
  std::string router;
};

void SaveShardManifest(const ShardManifest& manifest, BufWriter* out);
Result<ShardManifest> LoadShardManifest(BufReader* in);

// --- Whole-server bundle -----------------------------------------------------

/// The restored warm state. The store owns the vocabulary; the indexes point
/// at the store, so keep the bundle together (moving the struct is fine —
/// the store lives behind a unique_ptr, its address is stable).
struct SnapshotBundle {
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<SetRTree> setr;
  std::unique_ptr<KcRTree> kcr;
  /// Non-null only for per-shard snapshot files.
  std::unique_ptr<ShardManifest> shard;
};

/// Serialises the store (+ vocabulary) and whichever indexes are non-null
/// into one snapshot file. A non-null `shard` manifest marks the file as one
/// shard of a partitioned corpus. Returns the file size in bytes.
Result<uint64_t> WriteSnapshot(const std::string& path,
                               const ObjectStore& store,
                               const SetRTree* setr = nullptr,
                               const KcRTree* kcr = nullptr,
                               const ShardManifest* shard = nullptr);

/// Loads a snapshot written by WriteSnapshot. Bundle members for indexes the
/// file does not contain are left null; store and vocabulary are mandatory.
/// An inverted_index section (written by older builds) is skipped unread.
Result<SnapshotBundle> LoadSnapshot(const std::string& path);

// --- Inspection --------------------------------------------------------------

/// One row of `dataset_tool inspect-snapshot`.
struct SnapshotSectionReport {
  SectionId id;
  std::string name;
  uint64_t size = 0;
  uint32_t crc32 = 0;
  /// Leading element count of the payload (words, objects, terms, nodes);
  /// -1 when the payload failed its checksum.
  int64_t item_count = -1;
};

struct SnapshotReport {
  uint32_t format_version = 0;
  uint64_t file_size = 0;
  std::vector<SnapshotSectionReport> sections;
  /// The decoded shard_manifest section — engaged when the file is one shard
  /// of a partitioned corpus and the section decodes cleanly (`dataset_tool
  /// inspect-snapshot` prints it: shard index/count, router, object ids).
  std::optional<ShardManifest> shard;
};

/// Validates the container and summarises every section without
/// materialising the store or the trees. The shard manifest (when present)
/// is small and is decoded in full.
Result<SnapshotReport> InspectSnapshot(const std::string& path);

}  // namespace yask

#endif  // YASK_SNAPSHOT_SNAPSHOT_CODEC_H_
