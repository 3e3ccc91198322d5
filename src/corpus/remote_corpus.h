// Copyright (c) 2026 The YASK reproduction authors.
// RemoteCorpus: the coordinator's owned view of a corpus whose shards live
// in other processes (yask_shard_server) — the remote counterpart of
// ShardedCorpus. RemoteShardOracle (src/corpus/remote_whynot_oracle.h) runs
// top-k and why-not over it, one RemoteShardLeg per shard.
//
// Replica tier: each logical shard is backed by N replicas — yask_shard_server
// processes booted from the SAME per-shard snapshot file — held behind a
// ReplicaSet with health-aware routing. Stateless calls spread round-robin
// across healthy replicas; on any wire failure mid-call the set transparently
// retries the surviving replicas, so a killed process costs a failover, not a
// 503. Each replica carries its own error epoch, consecutive-failure count and
// an exponential cooldown: a flapping replica is routed around until its
// cooldown expires, then probed again (which is how a restarted process
// rejoins the rotation). Only when EVERY replica of a shard fails does the
// error reach the corpus-level epoch below.
//
// Connect() dials every replica of every endpoint group ("host:port|host:port"
// per shard, groups comma-joined by the caller), fetches each replica's meta
// (identity, global bounds + SDist normaliser, local->global id map, index
// availability, SetR root MBR) and the shared vocabulary, checks that the
// replicas of a group agree exactly (same snapshot ⇒ same identity — a
// replica Connect cannot reach joins as "pending" and is checked on first
// contact instead, so a rebooting replica never blocks coordinator boot), and
// cross-checks the shard set exactly like ShardedCorpus::Load checks shard
// files: all shards present exactly once, bounds agreed, global ids tiling
// 0..total-1. After that the coordinator can route by global id, tokenise
// queries with the same term ids the shards use, and pick top-k home shards —
// everything the in-process fan-outs read from their ShardedCorpus, except
// the indexes, which stay behind the wire.
//
// Transport: a small FIXED set of pipelined keep-alive connections per
// replica (PipelinedHttpChannel) — concurrent calls multiplex onto them in
// ticket order instead of checking a connection out of a pool, so a fan-out
// pays no per-call checkout and idle sockets stay warm. Per-call deadlines
// and retry-on-another-channel apply to transport errors only — HTTP error
// statuses are semantic and surface immediately. Server-side session
// state (Eqn. (3) plane sessions, Eqn. (4) probe batches) is replica-sticky;
// its failover — re-establish on a live replica and REPLAY to the same level
// — lives with the sessions in src/corpus/remote_whynot_oracle.cc. Failures
// that exhaust a whole ReplicaSet bump the corpus's error epoch, which
// YaskService samples around each request to turn a mid-algorithm shard
// failure into a clean 503 (the why-not oracle interface has no error
// channel of its own).

#ifndef YASK_CORPUS_REMOTE_CORPUS_H_
#define YASK_CORPUS_REMOTE_CORPUS_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/common/vocabulary.h"
#include "src/query/query.h"
#include "src/server/http_client.h"
#include "src/server/shard_protocol.h"
#include "src/storage/object.h"

namespace yask {

struct RemoteShardOptions {
  int connect_timeout_ms = 2000;
  /// Per-call wall deadline (send + wait + read).
  int call_deadline_ms = 15000;
  /// Extra attempts after a TRANSPORT failure, each on a fresh connection
  /// (covers server-side keep-alive recycling of pooled idle connections).
  int retries = 2;
  /// Worker threads of the coordinator fan-out pool (0 = one per shard).
  /// Unlike the in-process CorpusOptions::fanout_threads (CPU-bound shard
  /// scans), these tasks BLOCK on the wire, so even 1-core hosts get a pool
  /// — without one, every multi-shard round is sequential RPCs and one slow
  /// shard serializes the whole fan-out.
  size_t fanout_threads = 0;
  /// Replica cooldown after a failed call: base * 2^(consecutive failures-1),
  /// capped at max. A cooling replica is skipped by routing while healthy
  /// siblings exist, and probed again once the cooldown expires (how a
  /// restarted replica rejoins). Base 0 disables cooldown.
  int cooldown_base_ms = 200;
  int cooldown_max_ms = 3000;
  /// Pipelined keep-alive connections per replica. Concurrent calls
  /// multiplex onto these; each connection serialises its own responses, so
  /// this is also the replica's server-side concurrency from one
  /// coordinator.
  size_t mux_connections = 4;
};

/// One replica endpoint as the coordinator talks to it: a fixed set of
/// pipelined multiplexed connections plus the retry/deadline policy.
/// Thread-safe; calls from concurrent fan-outs pipeline onto the
/// least-loaded channel.
class RemoteShard {
 public:
  /// `metrics` (must outlive the shard) receives this replica's meters:
  /// requests/errors/retries counters and the per-replica RPC latency
  /// histogram, labeled {replica="host:port"}. /health and /metrics read
  /// the SAME instruments — the registry is the single source of truth.
  /// nullptr (standalone/test use) gives the shard a private registry.
  RemoteShard(std::string host, uint16_t port, RemoteShardOptions options,
              const MetricsRegistry* metrics = nullptr);

  /// One RPC. Returns the response body on HTTP 200; a semantic HTTP error
  /// becomes a Status with the mapped code (404 -> NotFound, 501 ->
  /// FailedPrecondition, else Unavailable) and is NOT retried; transport
  /// errors retry per the options (channels found with a half-closed idle
  /// socket redial for free), then surface as Unavailable and bump this
  /// replica's error epoch.
  Result<std::string> Call(const std::string& method, const std::string& path,
                           std::string_view body);

  /// One best-effort RPC that moves NO meters and NO error epochs: no
  /// requests/errors/retries counts, no latency observation, no rpc span,
  /// no retry. The /trace/<id> stitcher reads shard spans through this —
  /// observing a trace must not perturb the metrics being observed. Rides a
  /// DEDICATED keep-alive channel (warm across trace reads, but never one
  /// of the metered channels: a pipelined channel fails every in-flight
  /// call on any transport error, so a slow trace read sharing a pipe
  /// could fail concurrent metered RPCs and move the meters it observes).
  Result<std::string> CallUnmetered(const std::string& method,
                                    const std::string& path,
                                    std::string_view body, int deadline_ms);

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }
  std::string endpoint() const {
    return host_ + ":" + std::to_string(port_);
  }
  /// Wire requests issued (attempts count one each) — the round-trip meter
  /// bench_remote_shards gates on. Reads the registry counter.
  uint64_t requests() const { return requests_->value(); }
  /// Calls that exhausted every attempt — this replica's failure count.
  uint64_t error_epoch() const { return errors_->value(); }

 private:
  Result<std::string> CallInternal(const std::string& method,
                                   const std::string& path,
                                   std::string_view body);
  /// The least-loaded channel, round-robin tie-broken.
  PipelinedHttpChannel* PickChannel();

  std::string host_;
  uint16_t port_;
  RemoteShardOptions options_;
  /// Engaged only when no shared registry was passed to the constructor.
  std::unique_ptr<MetricsRegistry> own_metrics_;
  // Registry-owned instruments (stable for the registry's lifetime).
  Counter* requests_ = nullptr;
  Counter* errors_ = nullptr;
  Counter* retries_ = nullptr;
  Histogram* latency_ = nullptr;
  /// Fixed at construction (options.mux_connections, min 1); each channel
  /// is itself thread-safe, so calls never contend on shard-wide state.
  std::vector<std::unique_ptr<PipelinedHttpChannel>> channels_;
  /// CallUnmetered's own channel — trace-read failures must stay off the
  /// metered pipelines.
  std::unique_ptr<PipelinedHttpChannel> trace_channel_;
  std::atomic<uint64_t> rr_{0};
};

/// Lazy-connect state of one replica. Connect() validates every replica it
/// can reach; a transport-dead replica joins its set as kPending and is
/// validated on FIRST CONTACT (the meta fetch + identity check deferred from
/// Connect). A replica that answers but mismatches the group identity is
/// kRejected permanently — routing never picks it again, because failing over
/// onto a wrong-snapshot replica would corrupt results, not mask an outage.
enum class ReplicaValidation : uint8_t { kValidated = 0, kPending, kRejected };

/// One logical shard's replicas plus their health state and routing policy.
/// Thread-safe: routing state is atomic, each replica locks its own pool.
class ReplicaSet {
 public:
  /// `metrics` (non-null, outlives the set) receives the shard-level meters
  /// labeled {shard="<index>"}: failover/cooldown counters, the per-shard
  /// RPC latency histogram, and a cooling-replicas gauge computed at scrape
  /// time.
  ReplicaSet(std::vector<std::unique_ptr<RemoteShard>> replicas,
             RemoteShardOptions options, const MetricsRegistry* metrics,
             uint32_t shard_index);

  size_t num_replicas() const { return replicas_.size(); }
  RemoteShard& replica(size_t r) const { return *replicas_[r]; }
  /// "host:port|host:port" — the shard's identity in messages and /health.
  std::string description() const;

  /// One stateless RPC with health-aware routing: starts at the round-robin
  /// cursor, skips replicas in cooldown while a healthy one exists, and on a
  /// wire failure (Unavailable) retries the NEXT replica mid-call — the
  /// caller sees a failover, not an error. Semantic HTTP errors (404, 501)
  /// are answers, not failures, and surface immediately. Errors only after
  /// every replica failed.
  Result<std::string> Call(const std::string& method, const std::string& path,
                           std::string_view body) const;

  /// One RPC pinned to a replica — session traffic, where the server-side
  /// state is replica-sticky and the CALLER owns failover + replay. Health
  /// is still tracked (wire failure -> cooldown).
  Result<std::string> CallOn(size_t r, const std::string& method,
                             const std::string& path,
                             std::string_view body) const;

  /// A replica for new session placement: round-robin, preferring healthy
  /// replicas, never one whose `exclude` bit is set (the caller's
  /// failed-this-operation set). nullopt when every replica is excluded.
  std::optional<size_t> PickReplica(
      const std::vector<bool>* exclude = nullptr) const;

  void MarkFailure(size_t r) const;
  void MarkSuccess(size_t r) const;
  bool InCooldown(size_t r) const;

  // --- Lazy connect (see ReplicaValidation). ---
  /// The identity every replica of this set must present — the group meta
  /// Connect() agreed with the live replicas. Must be set before any replica
  /// is marked pending.
  void SetExpectedIdentity(const shardrpc::ShardMeta& meta);
  /// Flags a replica Connect() could not reach: identity validation is owed
  /// on first contact. Also starts a cooldown so routing prefers the
  /// already-validated siblings until the replica is probed.
  void MarkPendingValidation(size_t r) const;
  ReplicaValidation validation(size_t r) const {
    return static_cast<ReplicaValidation>(
        health_[r]->validation.load(std::memory_order_acquire));
  }
  /// Settles a pending replica: fetches its meta and checks the protocol
  /// range + shard identity against the expected identity. Unavailable =
  /// still unreachable (stays pending); FailedPrecondition = answered with
  /// the WRONG identity or protocol (permanently rejected). Validated and
  /// rejected replicas return their verdict without touching the wire.
  Status EnsureValidated(size_t r) const;
  /// Counted by Call() itself; session channels report theirs here. Bumps
  /// the registry counter /health and /metrics both read.
  void NoteFailover() const { failovers_->Add(); }

  /// Wire requests across all replicas.
  uint64_t requests() const;
  /// Calls (stateless or session) that succeeded only after at least one
  /// replica failed — the "a 503 was avoided" meter. Reads the registry
  /// counter.
  uint64_t failovers() const { return failovers_->value(); }

  /// EWMA (α = 0.2) of this shard's observed per-call RPC latency in ms,
  /// fed by the same observations as yask_shard_rpc_latency_ms; 0.0 until
  /// the first sample. Exposed as the yask_shard_rpc_ewma_ms gauge.
  double rpc_ewma_ms() const {
    return rpc_ewma_ms_->load(std::memory_order_relaxed);
  }
  /// How many Eqn. (3) candidate weights a Step-4 sweep segment should
  /// speculate on against this shard: clamp(8, 256, 8 + 4·ewma_ms). The
  /// slower the wire, the more a saved round-trip is worth relative to
  /// over-fetched counts past the floor cut. Exposed as the
  /// yask_sweep_batch_events gauge.
  size_t adaptive_sweep_batch() const;

 private:
  /// Latency bookkeeping shared by Call/CallOn: the histogram observation
  /// plus the EWMA update (CAS loop — fan-out threads race here).
  void ObserveLatency(double ms) const;
  /// Per-replica health. Heap-allocated so the set stays movable.
  struct Health {
    std::atomic<uint32_t> consecutive_failures{0};
    std::atomic<int64_t> cooldown_until_ms{0};  // Steady-clock millis.
    std::atomic<uint8_t> validation{
        static_cast<uint8_t>(ReplicaValidation::kValidated)};
  };

  std::vector<std::unique_ptr<RemoteShard>> replicas_;
  RemoteShardOptions options_;
  std::vector<std::unique_ptr<Health>> health_;
  /// The agreed group identity pending replicas must match. Heap-allocated
  /// so the set stays movable; null until SetExpectedIdentity.
  std::unique_ptr<shardrpc::ShardMeta> expected_meta_;
  mutable std::atomic<uint64_t> rr_{0};
  // Registry-owned instruments, labeled {shard="<index>"}.
  Counter* failovers_ = nullptr;
  Counter* cooldown_entries_ = nullptr;
  Counter* lazy_validations_ = nullptr;
  Counter* lazy_rejections_ = nullptr;
  Histogram* call_latency_ = nullptr;
  /// Heap-allocated like Health so the set stays movable. 0.0 = no sample.
  std::unique_ptr<std::atomic<double>> rpc_ewma_ms_ =
      std::make_unique<std::atomic<double>>(0.0);
};

/// The coordinator's serving-state view over N remote shards. Construct via
/// Connect(). Logically const while serving; the mutable internals (object
/// cache, connection pools, replica health, error epoch) are thread-safe.
class RemoteCorpus {
 public:
  /// Dials `endpoints` (one entry per shard, any order — shards are indexed
  /// by their manifest identity). Each entry is "host:port" or a replica
  /// group "host:port|host:port|..." of servers booted from the same shard
  /// snapshot. LAZY CONNECT: a dead minority is tolerated — a replica that
  /// cannot be reached joins its set as ReplicaValidation::kPending and has
  /// its identity checked on first contact; a replica that ANSWERS must
  /// agree with its group immediately. A group with zero reachable replicas
  /// still fails fast (its identity is unknowable), as does any shard-set
  /// inconsistency among the live replicas.
  static Result<RemoteCorpus> Connect(const std::vector<std::string>& endpoints,
                                      const RemoteShardOptions& options = {});

  RemoteCorpus(RemoteCorpus&&) = default;
  RemoteCorpus& operator=(RemoteCorpus&&) = default;

  size_t num_shards() const { return shards_.size(); }
  size_t size() const { return shard_of_.size(); }
  const Vocabulary& vocab() const { return *vocab_; }
  const Rect& bounds() const { return bounds_; }
  double dist_norm() const { return dist_norm_; }
  /// Every shard carries its KcR-tree (the /whynot prerequisite).
  bool has_kcr() const { return has_kcr_; }
  /// Shards lacking the KcR-tree (for precise error messages).
  std::vector<uint32_t> shards_without_kcr() const;

  const shardrpc::ShardMeta& meta(size_t shard) const { return metas_[shard]; }
  ReplicaSet& replicas(size_t shard) const { return *shards_[shard]; }
  uint32_t ShardOf(ObjectId global_id) const { return shard_of_[global_id]; }

  /// The object with a global id, fetched over the wire on first use and
  /// cached for the corpus lifetime (objects are immutable). The returned
  /// object's `.id` is the global id. On fetch failure the error epoch bumps
  /// and a static empty object is returned — callers surface the failure via
  /// error_epoch(), exactly like every other mid-algorithm wire error.
  const SpatialObject& Object(ObjectId global_id) const;

  /// Warms the object cache with one batched fetch per owning shard.
  void Prefetch(const std::vector<ObjectId>& global_ids) const;

  /// First object whose name matches, as a global id (one fan-out);
  /// kInvalidObject if none.
  ObjectId FindByName(const std::string& name) const;

  /// The coordinator fan-out pool (null = fan-outs run inline). Shared by
  /// every RemoteShardOracle over this corpus.
  ThreadPool* pool() const { return pool_.get(); }

  // --- Error channel (see file comment). ---
  uint64_t error_epoch() const { return state_->error_epoch.load(); }
  Status last_error() const;
  void RecordError(const Status& status) const;

  /// Total wire requests across all shards (bench instrumentation).
  uint64_t total_requests() const;
  /// Total successful failovers across all shards — calls and sessions that
  /// survived a replica failure. The bench's "kills stayed invisible" meter.
  /// Sums the per-shard registry counters (single source of truth).
  uint64_t total_failovers() const;

  /// The corpus-side metrics registry: every replica/shard meter above
  /// lives here; the coordinator's GET /metrics appends its render.
  const MetricsRegistry& metrics() const { return *metrics_; }
  /// Session replays (remote why-not sessions re-established and replayed
  /// on a live replica after a kill) — bumped by ShardSessionChannel.
  Counter* session_replays() const { return session_replays_; }

 private:
  RemoteCorpus() = default;

  /// Error state behind a stable allocation so the corpus stays movable.
  struct ErrorState {
    std::atomic<uint64_t> error_epoch{0};
    std::mutex mu;
    Status last;
  };

  // Declared FIRST: shards/replicas hold instrument pointers into the
  // registry, so it must be destroyed last. Behind unique_ptr so pointers
  // survive corpus moves (the ErrorState/ObjectCache pattern).
  std::unique_ptr<MetricsRegistry> metrics_;
  Counter* session_replays_ = nullptr;

  std::vector<std::unique_ptr<ReplicaSet>> shards_;
  std::vector<shardrpc::ShardMeta> metas_;
  std::unique_ptr<Vocabulary> vocab_;
  Rect bounds_ = Rect::Empty();
  double dist_norm_ = 0.0;
  bool has_kcr_ = false;
  std::vector<uint32_t> shard_of_;  // Global id -> shard index.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ErrorState> state_ = std::make_unique<ErrorState>();

  struct ObjectCache {
    std::mutex mu;
    // unique_ptr values: Object() hands out stable references.
    std::unordered_map<ObjectId, std::unique_ptr<SpatialObject>> map;
  };
  std::unique_ptr<ObjectCache> cache_ = std::make_unique<ObjectCache>();
};

}  // namespace yask

#endif  // YASK_CORPUS_REMOTE_CORPUS_H_
