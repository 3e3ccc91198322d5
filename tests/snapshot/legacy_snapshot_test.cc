// Snapshots written by older builds carry an inverted_index section (id 3)
// that serving never read. The reader skips it unread, so such a file must
// still load — standalone and as per-shard files — and the corpus restored
// from it must answer /query and /whynot exactly like the same corpus saved
// without the section.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/shard_router.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/http_client.h"
#include "src/server/json.h"
#include "src/server/yask_service.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/snapshot/snapshot_io.h"
#include "src/storage/hotel_generator.h"

namespace yask {
namespace {

/// The section-3 payload older builds wrote (docs/snapshot_format.md): varu64
/// term_count, then one delta-encoded posting list of object ids per term.
void PutLegacyInvertedIndex(const ObjectStore& store, BufWriter* out) {
  std::vector<std::vector<ObjectId>> postings(store.vocab().size());
  for (const SpatialObject& o : store.objects()) {
    for (const TermId t : o.doc) postings[t].push_back(o.id);
  }
  out->PutVarU64(postings.size());
  for (const std::vector<ObjectId>& list : postings) out->PutDeltaIds(list);
}

/// Copies the snapshot at `from` to `to`, adding the inverted_index section
/// of `store` where older builds wrote it: right after the object store.
void WriteLegacyCopy(const std::string& from, const std::string& to,
                     const ObjectStore& store) {
  auto reader = SnapshotReader::Open(from);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  SnapshotWriter writer;
  for (const SnapshotSectionInfo& info : reader->sections()) {
    auto section = reader->OpenSection(info.id);
    ASSERT_TRUE(section.ok()) << section.status().ToString();
    writer.AddSection(info.id)->PutRaw(
        std::string_view(reinterpret_cast<const char*>(section->cursor()),
                         section->remaining()));
    if (info.id == SectionId::kObjectStore) {
      PutLegacyInvertedIndex(store,
                             writer.AddSection(SectionId::kInvertedIndex));
    }
  }
  ASSERT_TRUE(writer.WriteTo(to).ok());
}

/// name -> (size, crc32) of every section InspectSnapshot reports.
std::map<std::string, std::pair<uint64_t, uint32_t>> SectionTable(
    const std::string& path) {
  std::map<std::string, std::pair<uint64_t, uint32_t>> table;
  auto report = InspectSnapshot(path);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return table;
  for (const SnapshotSectionReport& s : report->sections) {
    table[s.name] = {s.size, s.crc32};
  }
  return table;
}

/// The payload with every "response_millis" field dropped: the one field
/// that differs between two runs of the same request.
JsonValue StripTiming(const JsonValue& v) {
  if (v.is_object()) {
    JsonValue out = JsonValue::MakeObject();
    for (const auto& [key, value] : v.object_items()) {
      if (key != "response_millis") out.Set(key, StripTiming(value));
    }
    return out;
  }
  if (v.is_array()) {
    JsonValue out = JsonValue::MakeArray();
    for (const JsonValue& item : v.array_items()) {
      out.Append(StripTiming(item));
    }
    return out;
  }
  return v;
}

/// Sends /query, then /whynot under every model, to both services and
/// expects the same status and the same payload from each.
void ExpectSameAnswers(const YaskService& legacy, const YaskService& plain) {
  const std::string query =
      "{\"x\":114.158,\"y\":22.281,\"keywords\":\"clean comfortable\","
      "\"k\":3}";
  std::vector<std::pair<std::string, std::string>> requests = {
      {"/query", query}};
  for (const char* model : {"both", "preference", "keyword", "combined"}) {
    requests.emplace_back("/whynot",
                          std::string("{\"query_id\":1,\"missing\":[81],"
                                      "\"model\":\"") +
                              model + "\"}");
  }
  for (const auto& [path, body] : requests) {
    int legacy_status = 0;
    int plain_status = 0;
    auto legacy_body =
        HttpFetch(legacy.port(), "POST", path, body, &legacy_status);
    auto plain_body =
        HttpFetch(plain.port(), "POST", path, body, &plain_status);
    ASSERT_TRUE(legacy_body.ok() && plain_body.ok()) << path << " " << body;
    EXPECT_EQ(legacy_status, 200) << body << " -> " << *legacy_body;
    EXPECT_EQ(legacy_status, plain_status) << body;
    auto legacy_json = JsonValue::Parse(*legacy_body);
    auto plain_json = JsonValue::Parse(*plain_body);
    ASSERT_TRUE(legacy_json.ok() && plain_json.ok()) << body;
    EXPECT_EQ(StripTiming(*legacy_json).Dump(), StripTiming(*plain_json).Dump())
        << body;
  }
}

TEST(LegacySnapshotTest, StandaloneFileWithInvertedSectionLoadsAndAnswers) {
  const std::string plain_path = ::testing::TempDir() + "legacy_plain.snap";
  const std::string legacy_path = ::testing::TempDir() + "legacy_inv.snap";
  const Corpus original = CorpusBuilder().Build(GenerateHotelDataset());
  ASSERT_TRUE(original.Save(plain_path).ok());
  WriteLegacyCopy(plain_path, legacy_path, original.store());

  // The inspector still names the section; every other section is the same
  // bytes as in the file without it.
  auto legacy_table = SectionTable(legacy_path);
  const auto plain_table = SectionTable(plain_path);
  ASSERT_EQ(legacy_table.count("inverted_index"), 1u);
  EXPECT_GT(legacy_table["inverted_index"].first, 0u);
  EXPECT_EQ(plain_table.count("inverted_index"), 0u);
  legacy_table.erase("inverted_index");
  EXPECT_EQ(legacy_table, plain_table);

  auto legacy = CorpusBuilder().FromSnapshot(legacy_path);
  auto plain = CorpusBuilder().FromSnapshot(plain_path);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_TRUE(legacy->has_kcr());

  YaskService legacy_service(*legacy);
  YaskService plain_service(*plain);
  ASSERT_TRUE(legacy_service.Start().ok());
  ASSERT_TRUE(plain_service.Start().ok());
  ExpectSameAnswers(legacy_service, plain_service);
  legacy_service.Stop();
  plain_service.Stop();
  std::remove(plain_path.c_str());
  std::remove(legacy_path.c_str());
}

TEST(LegacySnapshotTest, ShardFilesWithInvertedSectionLoadAndAnswer) {
  const std::string plain_prefix = ::testing::TempDir() + "legacy_plain";
  const std::string legacy_prefix = ::testing::TempDir() + "legacy_inv";
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus original =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ASSERT_TRUE(original.Save(plain_prefix).ok());
  for (uint32_t s = 0; s < original.num_shards(); ++s) {
    WriteLegacyCopy(ShardedCorpus::ShardFilePath(plain_prefix, s),
                    ShardedCorpus::ShardFilePath(legacy_prefix, s),
                    original.shard(s).store());
    EXPECT_EQ(SectionTable(ShardedCorpus::ShardFilePath(legacy_prefix, s))
                  .count("inverted_index"),
              1u);
  }

  auto legacy = ShardedCorpus::Load(legacy_prefix);
  auto plain = ShardedCorpus::Load(plain_prefix);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  YaskService legacy_service(*legacy);
  YaskService plain_service(*plain);
  ASSERT_TRUE(legacy_service.Start().ok());
  ASSERT_TRUE(plain_service.Start().ok());
  ExpectSameAnswers(legacy_service, plain_service);
  legacy_service.Stop();
  plain_service.Stop();
  for (uint32_t s = 0; s < original.num_shards(); ++s) {
    std::remove(ShardedCorpus::ShardFilePath(plain_prefix, s).c_str());
    std::remove(ShardedCorpus::ShardFilePath(legacy_prefix, s).c_str());
  }
}

}  // namespace
}  // namespace yask
