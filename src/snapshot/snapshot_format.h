// Copyright (c) 2026 The YASK reproduction authors.
// On-disk snapshot format primitives: magic/version constants, section ids,
// CRC-32, and the bounds-checked little-endian buffer codecs every component
// codec is written against (see docs/snapshot_format.md for the full layout).
//
// A snapshot is the server's warm state (object table + indexes) serialised
// to one file so a restarting replica loads it in a single sequential pass
// instead of re-indexing. Robustness contract: a corrupt, truncated or
// version-mismatched file must surface as an error Status — never a crash,
// assert, or unbounded allocation.

#ifndef YASK_SNAPSHOT_SNAPSHOT_FORMAT_H_
#define YASK_SNAPSHOT_SNAPSHOT_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace yask {

/// First 8 bytes of every snapshot file: "YSKSNAP1" read as little-endian.
inline constexpr uint64_t kSnapshotMagic = 0x3150414E534B5359ull;

/// Bumped on every incompatible layout change. A reader refuses files with a
/// newer version (it cannot know their layout) with kFailedPrecondition.
inline constexpr uint32_t kSnapshotFormatVersion = 1;

/// Identifies what a section's payload encodes. Values are part of the file
/// format; never renumber, only append.
enum class SectionId : uint32_t {
  kVocabulary = 1,
  kObjectStore = 2,
  /// Written by older builds only; reserved, and skipped on read.
  kInvertedIndex = 3,
  kSetRTree = 4,
  kKcRTree = 5,
  /// Present only in per-shard snapshot files: which shard of how many this
  /// file is, the partition's global bounds, and the shard's global object
  /// ids (the local->global id map). See docs/architecture.md.
  kShardManifest = 6,
};

/// Stable lower-case name for logs and `dataset_tool inspect-snapshot`.
const char* SectionIdToString(SectionId id);

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `size` bytes. Pass the return
/// value back as `seed` to checksum data in chunks.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// Append-only little-endian encoder backing one snapshot section.
///
/// Fixed-width integers are used for the file header and section table (so
/// offsets are patchable and seekable); section payloads prefer the varint
/// and delta encodings, which shrink posting lists and keyword sets to close
/// to their entropy.
class BufWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }
  void PutF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }

  /// LEB128 unsigned varint (1 byte for values < 128).
  void PutVarU64(uint64_t v);
  void PutVarU32(uint32_t v) { PutVarU64(v); }

  /// Length-prefixed byte string.
  void PutString(std::string_view s);

  /// Raw bytes with no prefix (concatenating pre-encoded stripes).
  void PutRaw(std::string_view bytes) { out_.append(bytes); }

  /// A strictly ascending id sequence as count + delta-encoded varints; the
  /// natural encoding for posting lists and KeywordSets.
  void PutDeltaIds(const std::vector<uint32_t>& sorted_ids);

  const std::string& data() const { return out_; }
  size_t size() const { return out_.size(); }

 private:
  void PutFixed(const void* v, size_t n) {
    out_.append(reinterpret_cast<const char*>(v), n);
  }

  std::string out_;
};

/// Bounds-checked decoder over a section payload.
///
/// Sticky-error style: after any failed read the reader is poisoned, every
/// further read returns zero values, and `status()` reports the first error.
/// Decoders read optimistically and check `status()` once per object/batch.
class BufReader {
 public:
  BufReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}

  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  double GetF64();
  uint64_t GetVarU64();
  uint32_t GetVarU32();
  std::string GetString();
  /// Inverse of BufWriter::PutDeltaIds. Fails on non-ascending deltas.
  std::vector<uint32_t> GetDeltaIds();

  /// Guards a decoded element count before it sizes an allocation or loop:
  /// fails unless `count * min_bytes_each` bytes could still remain. Defeats
  /// absurd counts in corrupt files without reading them element-wise.
  bool CheckCount(uint64_t count, size_t min_bytes_each = 1);

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_ && ok_; }

  /// Pointer to the next unread byte (slicing stripe sub-readers).
  const uint8_t* cursor() const { return data_ + pos_; }

  /// Advances past `n` bytes; fails (sticky) when fewer remain.
  bool Skip(size_t n);
  bool ok() const { return ok_; }
  const Status& status() const { return status_; }

  /// Poisons the reader with a decoder-level error (e.g. an invalid enum
  /// value); keeps the first error if one is already set.
  void Fail(std::string message);

 private:
  bool Need(size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
  Status status_;
};

}  // namespace yask

#endif  // YASK_SNAPSHOT_SNAPSHOT_FORMAT_H_
