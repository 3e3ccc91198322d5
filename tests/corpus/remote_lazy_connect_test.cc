// Lazy-connect acceptance — the elastic-fleet contract of
// RemoteCorpus::Connect (docs/operations.md, "Rolling upgrades"):
//
//   * A replica group with a DEAD MINORITY connects: the dead replicas join
//     the set as pending-validation and the coordinator serves exact answers
//     through their validated siblings. (Before this, a rolling restart
//     window made the whole fleet un-connectable.)
//   * A pending replica is validated on FIRST CONTACT once it boots: the
//     deferred handshake runs the same identity + protocol checks an
//     at-Connect validation would have run.
//   * An imposter booted on a pending endpoint (wrong shard identity) is
//     permanently rejected, never routed to — lazy means deferred, not
//     skipped.
//   * A whole-dead GROUP still fails fast: with every replica of a shard
//     unreachable its identity is unknowable, so Connect refuses rather
//     than guessing.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/text.h"
#include "src/corpus/remote_corpus.h"
#include "src/corpus/remote_whynot_oracle.h"
#include "src/corpus/sharded_corpus.h"
#include "src/query/topk_engine.h"
#include "src/server/shard_service.h"
#include "src/storage/hotel_generator.h"

namespace yask {
namespace {

ShardService::Info InfoFor(const ShardedCorpus& corpus, size_t s) {
  ShardService::Info info;
  info.shard_index = static_cast<uint32_t>(s);
  info.shard_count = static_cast<uint32_t>(corpus.num_shards());
  info.global_bounds = corpus.bounds();
  info.dist_norm = corpus.dist_norm();
  info.to_global = corpus.shard_global_ids(s);
  info.router = corpus.router_description();
  return info;
}

std::unique_ptr<ShardService> StartReplica(const ShardedCorpus& corpus,
                                           size_t s, uint16_t port = 0) {
  ShardServiceOptions options;
  options.port = port;
  auto service = std::make_unique<ShardService>(corpus.shard(s),
                                                InfoFor(corpus, s), options);
  EXPECT_TRUE(service->Start().ok());
  return service;
}

RemoteShardOptions FastOptions() {
  RemoteShardOptions opts;
  opts.connect_timeout_ms = 300;
  opts.call_deadline_ms = 2000;
  opts.retries = 0;
  return opts;
}

TEST(RemoteLazyConnectTest, DeadMinorityConnectsAndServes) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));

  // Shard 0: one live replica + one dead endpoint (a replica mid-restart).
  // Shard 1: two live replicas.
  auto s0_live = StartReplica(sharded, 0);
  auto s0_dead = StartReplica(sharded, 0);
  const uint16_t dead_port = s0_dead->port();
  s0_dead->Stop();
  s0_dead.reset();
  auto s1_a = StartReplica(sharded, 1);
  auto s1_b = StartReplica(sharded, 1);

  const std::string spec0 = "127.0.0.1:" + std::to_string(s0_live->port()) +
                            "|127.0.0.1:" + std::to_string(dead_port);
  const std::string spec1 = "127.0.0.1:" + std::to_string(s1_a->port()) +
                            "|127.0.0.1:" + std::to_string(s1_b->port());

  auto connected =
      RemoteCorpus::Connect({spec0, spec1}, FastOptions());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote = std::move(connected).value();

  // The dead replica joined the set pending validation; its siblings are
  // validated. (Order within the set follows the spec order.)
  ASSERT_EQ(remote.replicas(0).num_replicas(), 2u);
  EXPECT_EQ(remote.replicas(0).validation(0), ReplicaValidation::kValidated);
  EXPECT_EQ(remote.replicas(0).validation(1), ReplicaValidation::kPending);
  EXPECT_EQ(remote.replicas(1).validation(0), ReplicaValidation::kValidated);
  EXPECT_EQ(remote.replicas(1).validation(1), ReplicaValidation::kValidated);

  // Exact answers flow through the validated siblings.
  const Corpus baseline = CorpusBuilder().Build(ObjectStore(store));
  const RemoteShardOracle oracle(remote);
  Query q;
  q.loc = Point{114.15, 22.28};
  q.doc = LookupKeywords("clean comfortable", remote.vocab());
  q.k = 5;
  const TopKResult expected = baseline.topk().Query(q);
  const TopKResult actual = oracle.TopK(q);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << "rank " << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << "rank " << i;
  }
  EXPECT_EQ(remote.error_epoch(), 0u)
      << "a pending replica is a known state, not a fleet error";

  // --- First contact: boot the real replica on the pending endpoint, kill
  // its validated sibling, and the very next query must fail over to the
  // pending replica, validate it, and stay byte-identical. ---
  s0_dead = StartReplica(sharded, 0, dead_port);
  ASSERT_EQ(s0_dead->port(), dead_port);
  s0_live->Stop();

  const TopKResult after = oracle.TopK(q);
  ASSERT_EQ(after.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(after[i].id, expected[i].id) << "rank " << i;
    EXPECT_EQ(after[i].score, expected[i].score) << "rank " << i;
  }
  EXPECT_EQ(remote.replicas(0).validation(1), ReplicaValidation::kValidated)
      << "first successful contact must run the deferred handshake";
}

TEST(RemoteLazyConnectTest, ImposterOnPendingEndpointIsRejected) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));

  auto s0_live = StartReplica(sharded, 0);
  auto s0_dead = StartReplica(sharded, 0);
  const uint16_t dead_port = s0_dead->port();
  s0_dead->Stop();
  s0_dead.reset();
  auto s1_live = StartReplica(sharded, 1);

  const std::string spec0 = "127.0.0.1:" + std::to_string(s0_live->port()) +
                            "|127.0.0.1:" + std::to_string(dead_port);
  auto connected = RemoteCorpus::Connect(
      {spec0, "127.0.0.1:" + std::to_string(s1_live->port())}, FastOptions());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus& remote = *connected;
  ASSERT_EQ(remote.replicas(0).validation(1), ReplicaValidation::kPending);

  // An imposter boots on the pending endpoint: a replica of the WRONG
  // shard. The deferred handshake must brand it rejected for good.
  auto imposter = StartReplica(sharded, 1, dead_port);
  ASSERT_EQ(imposter->port(), dead_port);
  const Status verdict = remote.replicas(0).EnsureValidated(1);
  EXPECT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(remote.replicas(0).validation(1), ReplicaValidation::kRejected);

  // Rejected is terminal: revalidation does not resurrect it.
  EXPECT_FALSE(remote.replicas(0).EnsureValidated(1).ok());
}

TEST(RemoteLazyConnectTest, WholeDeadGroupStillFailsFast) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  auto s1_live = StartReplica(sharded, 1);

  // Every replica of shard group 0 is unreachable: its identity (which
  // shard? what object count?) cannot be learned, so Connect must refuse
  // loudly instead of serving a half-fleet.
  auto connected = RemoteCorpus::Connect(
      {"127.0.0.1:1|127.0.0.1:2",
       "127.0.0.1:" + std::to_string(s1_live->port())},
      FastOptions());
  ASSERT_FALSE(connected.ok());
  EXPECT_EQ(connected.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(connected.status().message().find("every replica"),
            std::string::npos)
      << connected.status().message();
}

}  // namespace
}  // namespace yask
