// End-to-end acceptance test of the remote tier: a YaskService coordinator
// over loopback ShardService fleets must return BYTE-identical /query,
// /whynot and /forget payloads to a YaskService over the in-process
// ShardedCorpus built from the same objects, at 1/2/4 shards (only the
// response_millis timing fields are excluded — wall time is the one thing a
// network hop legitimately changes). Plus the remote-only failure modes:
// 503 when a shard dies mid-serving, 501 naming KcR-less shards, /health
// topology reporting, and 404 for stale query ids.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/corpus/remote_corpus.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/json.h"
#include "src/server/shard_service.h"
#include "src/server/yask_service.h"
#include "src/storage/hotel_generator.h"

namespace yask {
namespace {

struct ShardFleet {
  std::vector<std::unique_ptr<ShardService>> services;
  std::vector<std::string> endpoints;

  explicit ShardFleet(const ShardedCorpus& corpus) {
    for (size_t s = 0; s < corpus.num_shards(); ++s) {
      ShardService::Info info;
      info.shard_index = static_cast<uint32_t>(s);
      info.shard_count = static_cast<uint32_t>(corpus.num_shards());
      info.global_bounds = corpus.bounds();
      info.dist_norm = corpus.dist_norm();
      info.to_global = corpus.shard_global_ids(s);
      info.router = corpus.router_description();
      services.push_back(
          std::make_unique<ShardService>(corpus.shard(s), std::move(info)));
      EXPECT_TRUE(services.back()->Start().ok());
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(services.back()->port()));
    }
  }

  ~ShardFleet() { Stop(); }
  void Stop() {
    for (auto& service : services) service->Stop();
  }
};

/// Drops every (nested) "response_millis" field and re-dumps — the one
/// legitimate difference between transports.
JsonValue StripTiming(const JsonValue& v) {
  if (v.is_object()) {
    JsonValue out = JsonValue::MakeObject();
    for (const auto& [key, value] : v.object_items()) {
      if (key == "response_millis") continue;
      out.Set(key, StripTiming(value));
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

std::string Normalized(const std::string& payload) {
  auto parsed = JsonValue::Parse(payload);
  EXPECT_TRUE(parsed.ok()) << payload;
  if (!parsed.ok()) return payload;
  return StripTiming(parsed.value()).Dump();
}

/// POSTs the same body to both services and expects byte-identical payloads
/// (modulo timing) and identical statuses.
void ExpectSamePayload(const YaskService& remote, const YaskService& local,
                       const std::string& method, const std::string& path,
                       const std::string& body, const std::string& label,
                       int* status_out = nullptr) {
  int remote_status = 0;
  int local_status = 0;
  auto remote_body = HttpFetch(remote.port(), method, path, body,
                               &remote_status);
  auto local_body = HttpFetch(local.port(), method, path, body, &local_status);
  ASSERT_TRUE(remote_body.ok()) << label;
  ASSERT_TRUE(local_body.ok()) << label;
  EXPECT_EQ(remote_status, local_status) << label;
  EXPECT_EQ(Normalized(*remote_body), Normalized(*local_body)) << label;
  if (status_out != nullptr) *status_out = remote_status;
}

TEST(RemoteServiceTest, PayloadParityAcrossShardCounts) {
  const ObjectStore store = GenerateHotelDataset();
  for (const uint32_t shards : {1u, 2u, 4u}) {
    const ShardedCorpus sharded =
        ShardedCorpus::Partition(store, GridShardRouter::Fit(store, shards));
    ShardFleet fleet(sharded);
    auto connected = RemoteCorpus::Connect(fleet.endpoints);
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    const RemoteCorpus remote_corpus = std::move(connected).value();

    YaskService remote(remote_corpus);
    YaskService local(sharded);
    ASSERT_TRUE(remote.Start().ok());
    ASSERT_TRUE(local.Start().ok());
    const std::string tag = std::to_string(shards) + " shards";

    // The same initial query on both (both allocate query_id 1).
    const std::string query =
        "{\"x\":114.158,\"y\":22.281,\"keywords\":\"clean comfortable\","
        "\"k\":3}";
    ExpectSamePayload(remote, local, "POST", "/query", query, tag + " query");

    // Every why-not model, against the cached query.
    for (const std::string model :
         {"both", "preference", "keyword", "combined"}) {
      const std::string whynot = "{\"query_id\":1,\"missing\":[\"" +
                                 store.Get(81).name + "\"],\"model\":\"" +
                                 model + "\"}";
      ExpectSamePayload(remote, local, "POST", "/whynot", whynot,
                        tag + " whynot/" + model);
    }

    // Object sample and forget round-trip.
    ExpectSamePayload(remote, local, "GET", "/objects?limit=25", "",
                      tag + " objects");
    ExpectSamePayload(remote, local, "POST", "/forget", "{\"query_id\":1}",
                      tag + " forget");
    // A forgotten query answers 404 identically.
    int status = 0;
    ExpectSamePayload(remote, local, "POST", "/whynot",
                      "{\"query_id\":1,\"missing\":[81]}", tag + " stale",
                      &status);
    EXPECT_EQ(status, 404) << tag;

    remote.Stop();
    local.Stop();
  }
}

TEST(RemoteServiceTest, HealthReportsRemoteTopology) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok());
  YaskService service(*connected);
  ASSERT_TRUE(service.Start().ok());

  int status = 0;
  auto body = HttpFetch(service.port(), "GET", "/health", "", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);
  auto health = JsonValue::Parse(*body);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->Get("status").as_string(), "ok");
  EXPECT_EQ(static_cast<size_t>(health->Get("objects").as_number()),
            store.size());
  EXPECT_EQ(health->Get("shards").as_number(), 2);
  EXPECT_EQ(health->Get("remote_shards").size(), 2u);
  EXPECT_TRUE(health->Get("indexes").Get("kcr").as_bool());
  EXPECT_TRUE(health->Get("whynot").as_bool());

  // The shard servers' own /health reports per-shard index availability.
  auto shard_health =
      HttpFetch(fleet.services[0]->port(), "GET", "/health", "", &status);
  ASSERT_TRUE(shard_health.ok());
  auto parsed = JsonValue::Parse(*shard_health);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("role").as_string(), "shard");
  EXPECT_TRUE(parsed->Get("indexes").Get("kcr").as_bool());

  // A coordinator holds no state: /snapshot is a clear 501.
  auto snap = HttpFetch(service.port(), "POST", "/snapshot", "{}", &status);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(status, 501);

  service.Stop();
}

TEST(RemoteServiceTest, WhyNotIs501NamingKcrLessShards) {
  const ObjectStore store = GenerateHotelDataset();
  CorpusOptions no_kcr;
  no_kcr.build_kcr_tree = false;
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2), no_kcr);
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok());
  YaskService service(*connected);
  ASSERT_TRUE(service.Start().ok());

  // /query still works (top-k needs only the SetR-tree)...
  int status = 0;
  auto body = HttpFetch(
      service.port(), "POST", "/query",
      "{\"x\":114.158,\"y\":22.281,\"keywords\":\"clean\",\"k\":3}", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);

  // ...but /whynot fails fast, naming the shards and the fix.
  body = HttpFetch(service.port(), "POST", "/whynot",
                   "{\"query_id\":1,\"missing\":[5]}", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 501);
  EXPECT_NE(body->find("KcR"), std::string::npos) << *body;
  EXPECT_NE(body->find(fleet.endpoints[0]), std::string::npos) << *body;

  // /health says so up front.
  body = HttpFetch(service.port(), "GET", "/health", "", &status);
  ASSERT_TRUE(body.ok());
  auto health = JsonValue::Parse(*body);
  ASSERT_TRUE(health.ok());
  EXPECT_FALSE(health->Get("whynot").as_bool());

  service.Stop();
}

TEST(RemoteServiceTest, DeadShardSurfacesAs503NotGarbage) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  auto fleet = std::make_unique<ShardFleet>(sharded);
  RemoteShardOptions opts;
  opts.connect_timeout_ms = 300;
  opts.call_deadline_ms = 1000;
  opts.retries = 0;
  auto connected = RemoteCorpus::Connect(fleet->endpoints, opts);
  ASSERT_TRUE(connected.ok());
  YaskService service(*connected);
  ASSERT_TRUE(service.Start().ok());

  const std::string query =
      "{\"x\":114.158,\"y\":22.281,\"keywords\":\"clean comfortable\","
      "\"k\":3}";
  int status = 0;
  auto body = HttpFetch(service.port(), "POST", "/query", query, &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);

  // Kill the fleet; a /query must answer 503, never a silently-partial 200.
  fleet->Stop();
  body = HttpFetch(service.port(), "POST", "/query", query, &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 503);
  EXPECT_NE(body->find("shard"), std::string::npos) << *body;

  // A why-not question over the dead fleet is an outage too, whichever
  // model runs: 503, never a crash or a 400 blaming the request.
  for (const char* model : {"preference", "keyword", "both", "combined"}) {
    body = HttpFetch(service.port(), "POST", "/whynot",
                     std::string("{\"query_id\":1,\"missing\":[5],"
                                 "\"model\":\"") +
                         model + "\"}",
                     &status);
    ASSERT_TRUE(body.ok()) << model;
    EXPECT_EQ(status, 503) << model << ": " << *body;
  }

  service.Stop();
}

}  // namespace
}  // namespace yask
