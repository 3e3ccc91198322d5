// The replica tier's acceptance suite: a YaskService coordinator over
// loopback replica fleets (N shards x R ShardService replicas, every replica
// of a shard serving the same shard corpus) must answer BYTE-identically to
// the in-process sharded path at every fleet shape — and keep doing so, with
// ZERO client-visible errors, while one replica per shard is killed and
// restarted between and during requests. Mid-session failover (Eqn. (3)
// plane sessions and Eqn. (4) probe batches re-established and REPLAYED on a
// live sibling) is pinned at the oracle level, where the kill can be placed
// deterministically between session calls. Only a shard with no live replica
// at all may 503.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/text.h"
#include "src/corpus/remote_corpus.h"
#include "src/corpus/remote_whynot_oracle.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/json.h"
#include "src/server/shard_service.h"
#include "src/server/yask_service.h"
#include "src/storage/hotel_generator.h"

namespace yask {
namespace {

/// N shards x R replicas of ShardService over one ShardedCorpus. Replicas of
/// a shard share the shard's corpus — the in-process stand-in for "booted
/// from the same snapshot file". Kill() + Restart() reuse the replica's
/// original port, like a supervised process coming back.
struct ReplicaFleet {
  const ShardedCorpus* corpus;
  std::vector<std::vector<std::unique_ptr<ShardService>>> services;
  std::vector<std::vector<uint16_t>> ports;

  ReplicaFleet(const ShardedCorpus& sharded, size_t replicas)
      : corpus(&sharded) {
    services.resize(sharded.num_shards());
    ports.resize(sharded.num_shards());
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      for (size_t r = 0; r < replicas; ++r) {
        auto service = std::make_unique<ShardService>(
            sharded.shard(s), InfoFor(s), ShardServiceOptions{});
        EXPECT_TRUE(service->Start().ok());
        ports[s].push_back(service->port());
        services[s].push_back(std::move(service));
      }
    }
  }

  ~ReplicaFleet() {
    for (auto& shard : services) {
      for (auto& service : shard) {
        if (service != nullptr) service->Stop();
      }
    }
  }

  ShardService::Info InfoFor(size_t s) const {
    ShardService::Info info;
    info.shard_index = static_cast<uint32_t>(s);
    info.shard_count = static_cast<uint32_t>(corpus->num_shards());
    info.global_bounds = corpus->bounds();
    info.dist_norm = corpus->dist_norm();
    info.to_global = corpus->shard_global_ids(s);
    info.router = corpus->router_description();
    return info;
  }

  /// "host:port|host:port" per shard — the coordinator's endpoint groups.
  std::vector<std::string> Endpoints() const {
    std::vector<std::string> groups;
    for (const auto& shard_ports : ports) {
      std::string group;
      for (const uint16_t port : shard_ports) {
        if (!group.empty()) group += '|';
        group += "127.0.0.1:" + std::to_string(port);
      }
      groups.push_back(std::move(group));
    }
    return groups;
  }

  void Kill(size_t s, size_t r) {
    services[s][r]->Stop();
    services[s][r].reset();
  }

  void Restart(size_t s, size_t r) {
    ShardServiceOptions options;
    options.port = ports[s][r];
    auto service = std::make_unique<ShardService>(corpus->shard(s),
                                                  InfoFor(s), options);
    // The freed port can linger briefly; a supervised restart retries.
    Status started = service->Start();
    for (int attempt = 0; !started.ok() && attempt < 50; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      started = service->Start();
    }
    ASSERT_TRUE(started.ok()) << started.ToString();
    services[s][r] = std::move(service);
  }

  void KillEverywhere(size_t r) {
    for (size_t s = 0; s < services.size(); ++s) Kill(s, r);
  }
  void RestartEverywhere(size_t r) {
    for (size_t s = 0; s < services.size(); ++s) Restart(s, r);
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

const char kQueryBody[] =
    "{\"x\":114.158,\"y\":22.281,\"keywords\":\"clean comfortable\","
    "\"k\":3}";

TEST(ReplicaFailoverTest, PayloadParityAcrossFleetShapes) {
  const ObjectStore store = GenerateHotelDataset();
  for (const uint32_t shards : {1u, 2u, 4u}) {
    const ShardedCorpus sharded =
        ShardedCorpus::Partition(store, GridShardRouter::Fit(store, shards));
    for (const size_t replicas : {1u, 2u, 3u}) {
      ReplicaFleet fleet(sharded, replicas);
      auto connected = RemoteCorpus::Connect(fleet.Endpoints());
      ASSERT_TRUE(connected.ok()) << connected.status().ToString();
      const RemoteCorpus remote_corpus = std::move(connected).value();

      YaskService remote(remote_corpus);
      YaskService local(sharded);
      ASSERT_TRUE(remote.Start().ok());
      ASSERT_TRUE(local.Start().ok());
      const std::string tag = std::to_string(shards) + " shards x " +
                              std::to_string(replicas) + " replicas";

      ExpectSamePayload(remote, local, "POST", "/query", kQueryBody,
                        tag + " query");
      const std::string whynot = "{\"query_id\":1,\"missing\":[\"" +
                                 store.Get(81).name +
                                 "\"],\"model\":\"both\"}";
      ExpectSamePayload(remote, local, "POST", "/whynot", whynot,
                        tag + " whynot");
      ExpectSamePayload(remote, local, "POST", "/forget",
                        "{\"query_id\":1}", tag + " forget");

      remote.Stop();
      local.Stop();
    }
  }
}

TEST(ReplicaFailoverTest, KillOneReplicaPerShardBetweenRequestsIsInvisible) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ReplicaFleet fleet(sharded, /*replicas=*/2);
  RemoteShardOptions options;
  options.connect_timeout_ms = 500;
  options.retries = 1;
  auto connected = RemoteCorpus::Connect(fleet.Endpoints(), options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote_corpus = std::move(connected).value();

  YaskService remote(remote_corpus);
  YaskService local(sharded);
  ASSERT_TRUE(remote.Start().ok());
  ASSERT_TRUE(local.Start().ok());

  int status = 0;
  ExpectSamePayload(remote, local, "POST", "/query", kQueryBody, "query",
                    &status);
  EXPECT_EQ(status, 200);

  // Kill replica 0 of EVERY shard: the fleet is half gone, the contract is
  // not. Every why-not model must come back 200 and byte-identical.
  fleet.KillEverywhere(0);
  const std::string whynot = "{\"query_id\":1,\"missing\":[\"" +
                             store.Get(81).name + "\"],\"model\":\"both\"}";
  ExpectSamePayload(remote, local, "POST", "/whynot", whynot,
                    "whynot after kill", &status);
  EXPECT_EQ(status, 200);

  // The killed replicas come back; their siblings die instead.
  fleet.RestartEverywhere(0);
  fleet.KillEverywhere(1);
  const std::string keyword = "{\"query_id\":1,\"missing\":[\"" +
                              store.Get(81).name +
                              "\"],\"model\":\"keyword\"}";
  ExpectSamePayload(remote, local, "POST", "/whynot", keyword,
                    "whynot after second kill", &status);
  EXPECT_EQ(status, 200);
  ExpectSamePayload(remote, local, "POST", "/query", kQueryBody,
                    "query after second kill", &status);
  EXPECT_EQ(status, 200);

  // Zero client-visible errors: nothing ever reached the corpus-level error
  // epoch (which would have 503ed a request) — the kills were absorbed as
  // replica failovers.
  EXPECT_EQ(remote_corpus.error_epoch(), 0u);
  EXPECT_GE(remote_corpus.total_failovers(), 1u);

  remote.Stop();
  local.Stop();
}

TEST(ReplicaFailoverTest, PlaneSessionFailsOverMidSweep) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ReplicaFleet fleet(sharded, /*replicas=*/2);
  RemoteShardOptions options;
  options.connect_timeout_ms = 500;
  options.retries = 1;
  auto connected = RemoteCorpus::Connect(fleet.Endpoints(), options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote_corpus = std::move(connected).value();
  const RemoteShardOracle oracle(remote_corpus);

  Query query;
  query.loc = Point{114.158, 22.281};
  query.doc = LookupKeywords("clean comfortable", remote_corpus.vocab());
  query.k = 3;
  const ObjectId missing = 81;

  // Reference sweep on an all-healthy fleet.
  PreferenceAdjustStats stats;
  std::vector<size_t> expected_counts;
  std::vector<double> expected_events;
  PlanePoint anchor{};
  {
    auto session =
        oracle.PrepareScorePlane(query, PrefAdjustMode::kOptimized);
    anchor = session->Anchor(missing);
    for (const double w : {0.3, 0.5, 0.7}) {
      expected_counts.push_back(
          session->CountAboveBatch({w}, {anchor}, &stats)[0]);
    }
    session->CollectCrossings(anchor, 0.0, 1.0, &expected_events, &stats);
    std::sort(expected_events.begin(), expected_events.end());
  }

  // The same sweep with one replica per shard dying MID-SESSION, twice, so
  // that wherever each shard's session landed, at least one kill hits it
  // and forces a re-open + replay on the sibling.
  auto session = oracle.PrepareScorePlane(query, PrefAdjustMode::kOptimized);
  EXPECT_EQ(session->CountAboveBatch({0.3}, {anchor}, &stats)[0],
            expected_counts[0]);
  fleet.KillEverywhere(0);
  EXPECT_EQ(session->CountAboveBatch({0.5}, {anchor}, &stats)[0],
            expected_counts[1]);
  fleet.RestartEverywhere(0);
  fleet.KillEverywhere(1);
  EXPECT_EQ(session->CountAboveBatch({0.7}, {anchor}, &stats)[0],
            expected_counts[2]);
  std::vector<double> events;
  session->CollectCrossings(anchor, 0.0, 1.0, &events, &stats);
  std::sort(events.begin(), events.end());
  EXPECT_EQ(events, expected_events);

  EXPECT_EQ(remote_corpus.error_epoch(), 0u);
  EXPECT_GE(remote_corpus.total_failovers(), 1u);
}

TEST(ReplicaFailoverTest, ProbeBatchFailsOverMidBatchWithReplay) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ReplicaFleet fleet(sharded, /*replicas=*/2);
  RemoteShardOptions options;
  options.connect_timeout_ms = 500;
  options.retries = 1;
  auto connected = RemoteCorpus::Connect(fleet.Endpoints(), options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote_corpus = std::move(connected).value();
  const RemoteShardOracle oracle(remote_corpus);

  Query query;
  query.loc = Point{114.158, 22.281};
  query.doc = LookupKeywords("clean comfortable quiet", remote_corpus.vocab());
  query.k = 3;
  const std::vector<OracleTargetSpec> specs{{&query, 81}, {&query, 120}};
  const std::vector<size_t> all{0, 1};

  auto snapshot = [&](RankProbeBatch& batch) {
    std::vector<std::tuple<size_t, size_t, bool>> rows;
    for (size_t i = 0; i < batch.size(); ++i) {
      rows.emplace_back(batch.lower(i), batch.upper(i), batch.resolved(i));
    }
    return rows;
  };

  // Reference: the same batch refined three levels on a healthy fleet.
  KeywordAdaptStats stats;
  std::vector<std::vector<std::tuple<size_t, size_t, bool>>> expected;
  {
    auto batch = oracle.ProbeRankBatch(specs, &stats);
    expected.push_back(snapshot(*batch));
    for (int level = 0; level < 3; ++level) {
      batch->RefineLevel(all);
      expected.push_back(snapshot(*batch));
    }
  }

  // Chaos run: kills between refine levels. The server-side frontiers of the
  // lost sessions must be REPLAYED on the sibling, or the bounds after the
  // failed-over refine would diverge.
  auto batch = oracle.ProbeRankBatch(specs, &stats);
  EXPECT_EQ(snapshot(*batch), expected[0]);
  batch->RefineLevel(all);
  EXPECT_EQ(snapshot(*batch), expected[1]);
  fleet.KillEverywhere(0);
  batch->RefineLevel(all);
  EXPECT_EQ(snapshot(*batch), expected[2]);
  fleet.RestartEverywhere(0);
  fleet.KillEverywhere(1);
  batch->RefineLevel(all);
  EXPECT_EQ(snapshot(*batch), expected[3]);

  EXPECT_EQ(remote_corpus.error_epoch(), 0u);
  EXPECT_GE(remote_corpus.total_failovers(), 1u);
}

TEST(ReplicaFailoverTest, BatchedSweepSegmentFailsOverWithReplay) {
  // The Eqn. (3) batched sweep under chaos: kills land so that a
  // /shard/plane/count_batch segment call hits a dead replica mid-sweep and
  // must re-open the session on the sibling, REPLAY its recorded history,
  // and re-issue the whole segment — returning the same counts the healthy
  // fleet returns.
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ReplicaFleet fleet(sharded, /*replicas=*/2);
  RemoteShardOptions options;
  options.connect_timeout_ms = 500;
  options.retries = 1;
  auto connected = RemoteCorpus::Connect(fleet.Endpoints(), options);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote_corpus = std::move(connected).value();
  const RemoteShardOracle oracle(remote_corpus);

  Query query;
  query.loc = Point{114.158, 22.281};
  query.doc = LookupKeywords("clean comfortable", remote_corpus.vocab());
  query.k = 3;
  const ObjectId missing = 81;
  const std::vector<double> weights{0.25, 0.4, 0.55, 0.7};

  // Reference segments on an all-healthy fleet.
  PreferenceAdjustStats stats;
  std::vector<size_t> expected;
  PlanePoint anchor{};
  {
    auto session =
        oracle.PrepareScorePlane(query, PrefAdjustMode::kOptimized);
    anchor = session->Anchor(missing);
    expected = session->CountAboveBatch(weights, {anchor}, &stats);
  }
  ASSERT_EQ(expected.size(), weights.size());

  // Chaos run: one replica per shard dies between segment calls, twice, so
  // wherever each shard's session landed at least one batched segment lands
  // on a dead replica and forces re-open + replay on the sibling.
  const std::vector<PlanePoint> anchors{anchor};
  auto session = oracle.PrepareScorePlane(query, PrefAdjustMode::kOptimized);
  EXPECT_EQ(session->CountAboveBatch({weights[0], weights[1]}, anchors,
                                     &stats),
            (std::vector<size_t>{expected[0], expected[1]}));
  fleet.KillEverywhere(0);
  EXPECT_EQ(session->CountAboveBatch({weights[2]}, anchors, &stats),
            (std::vector<size_t>{expected[2]}));
  fleet.RestartEverywhere(0);
  fleet.KillEverywhere(1);
  EXPECT_EQ(session->CountAboveBatch({weights[3]}, anchors, &stats),
            (std::vector<size_t>{expected[3]}));

  EXPECT_EQ(remote_corpus.error_epoch(), 0u);
  EXPECT_GE(remote_corpus.total_failovers(), 1u);

  // End to end on the degraded fleet (replica 1 of every shard still dead):
  // the full batched sweep — session open, segment fan-outs, floor cut —
  // must return the refinement the unsharded reference computes.
  PreferenceAdjustOptions batched;
  batched.batch_sweep = true;
  auto remote_refined = AdjustPreference(oracle, query, {missing}, batched);
  const Corpus local = CorpusBuilder().Build(ObjectStore(store));
  auto local_refined =
      AdjustPreference(LocalWhyNotOracle(local), query, {missing}, batched);
  ASSERT_TRUE(remote_refined.ok()) << remote_refined.status().ToString();
  ASSERT_TRUE(local_refined.ok());
  EXPECT_EQ(remote_refined->refined.w.ws, local_refined->refined.w.ws);
  EXPECT_EQ(remote_refined->refined.k, local_refined->refined.k);
  EXPECT_EQ(remote_refined->penalty.value, local_refined->penalty.value);
  EXPECT_EQ(remote_refined->refined_rank, local_refined->refined_rank);
  EXPECT_EQ(remote_corpus.error_epoch(), 0u);
}

TEST(ReplicaFailoverTest, ShardWithNoLiveReplicaIs503) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ReplicaFleet fleet(sharded, /*replicas=*/2);
  RemoteShardOptions options;
  options.connect_timeout_ms = 300;
  options.call_deadline_ms = 1000;
  options.retries = 0;
  auto connected = RemoteCorpus::Connect(fleet.Endpoints(), options);
  ASSERT_TRUE(connected.ok());
  YaskService service(*connected);
  ASSERT_TRUE(service.Start().ok());

  int status = 0;
  auto body = HttpFetch(service.port(), "POST", "/query", kQueryBody,
                        &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);

  // BOTH replicas of every shard die: failover has nowhere to go, and the
  // answer must be a clean 503, never a silently-partial 200.
  fleet.KillEverywhere(0);
  fleet.KillEverywhere(1);
  body = HttpFetch(service.port(), "POST", "/query", kQueryBody, &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 503);
  EXPECT_NE(body->find("shard"), std::string::npos) << *body;

  service.Stop();
}

TEST(ReplicaFailoverTest, HealthReportsReplicaTopology) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ReplicaFleet fleet(sharded, /*replicas=*/2);
  auto connected = RemoteCorpus::Connect(fleet.Endpoints());
  ASSERT_TRUE(connected.ok());
  YaskService service(*connected);
  ASSERT_TRUE(service.Start().ok());

  int status = 0;
  auto body = HttpFetch(service.port(), "GET", "/health", "", &status);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(status, 200);
  auto health = JsonValue::Parse(*body);
  ASSERT_TRUE(health.ok());
  const JsonValue& shards = health->Get("remote_shards");
  ASSERT_EQ(shards.size(), 2u);
  for (size_t s = 0; s < 2; ++s) {
    const JsonValue& row = shards.At(s);
    EXPECT_EQ(row.Get("replicas").size(), 2u);
    EXPECT_NE(row.Get("endpoint").as_string().find('|'), std::string::npos);
    for (size_t r = 0; r < 2; ++r) {
      const JsonValue& rep = row.Get("replicas").At(r);
      EXPECT_FALSE(rep.Get("endpoint").as_string().empty());
      EXPECT_FALSE(rep.Get("cooling").as_bool());
      EXPECT_EQ(rep.Get("error_epoch").as_number(), 0);
    }
  }

  service.Stop();
}

TEST(ReplicaFailoverTest, ConnectRejectsMixedReplicaGroup) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ReplicaFleet fleet(sharded, /*replicas=*/1);
  // Both shards joined as "replicas" of ONE group: the identities disagree,
  // and failing over between different shards would corrupt every merge.
  const std::vector<std::string> mixed{
      "127.0.0.1:" + std::to_string(fleet.ports[0][0]) + "|127.0.0.1:" +
      std::to_string(fleet.ports[1][0])};
  auto connected = RemoteCorpus::Connect(mixed);
  ASSERT_FALSE(connected.ok());
  EXPECT_NE(connected.status().message().find("replica group"),
            std::string::npos)
      << connected.status().ToString();
}

}  // namespace
}  // namespace yask
