// Copyright (c) 2026 The YASK reproduction authors.
// ShardService: one Corpus shard served over HTTP — the remote half of the
// WhyNotOracle/top-k fan-out seam. A coordinator (yask_server_demo
// --remote-shards, via RemoteCorpus) connects to N of these and answers the
// full /query + /whynot + /forget contract bit-identically to the in-process
// ShardedCorpus path.
//
// Every data endpoint is decode → LocalShardLeg → encode: the server runs
// the same per-shard leg the in-process oracles hold (src/whynot/
// shard_primitives.h), sessions included, and every double crosses the wire
// as its raw bits (src/server/shard_protocol.h) — which is what makes the
// remote answers byte-identical.
//
// Statefulness: the Eqn. (3) score-plane sessions and Eqn. (4) rank-probe
// batches are per-question server-side state (plane points / refiner
// frontiers over this shard). Sessions are id-keyed, independently locked,
// explicitly closed by the coordinator, and LRU-capped so a leaking or dead
// client cannot pin memory.

#ifndef YASK_SERVER_SHARD_SERVICE_H_
#define YASK_SERVER_SHARD_SERVICE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/corpus/corpus.h"
#include "src/server/http_server.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/whynot/shard_primitives.h"

namespace yask {

struct ShardServiceOptions {
  uint16_t port = 0;  // 0 = ephemeral.
  /// Each keep-alive connection pins a worker while open. A coordinator
  /// multiplexes all its in-flight requests for this replica over a small
  /// fixed set of pipelined connections (RemoteShardOptions::mux_connections,
  /// default 4), so num_workers only needs to cover that set times the number
  /// of coordinators, not peak request concurrency.
  size_t num_workers = 8;
  /// Upper bound on open plane/probe sessions; beyond it the oldest is
  /// evicted (a later call on it answers 404). Coordinators close sessions
  /// after every question, so the cap only matters for leaking clients.
  size_t max_sessions = 256;
};

/// Serves one shard. The corpus must outlive the service.
class ShardService {
 public:
  /// The shard's identity inside the partitioned corpus, plus the GLOBAL
  /// quantities every score must be computed with.
  struct Info {
    uint32_t shard_index = 0;
    uint32_t shard_count = 1;
    Rect global_bounds = Rect::Empty();  // Whole-dataset MBR.
    double dist_norm = 0.0;              // Its diagonal (Eqn. (1)).
    std::vector<ObjectId> to_global;     // Empty = ids already global.
    std::string router;                  // Informational.
  };

  /// A standalone corpus served as shard 0 of 1 (global ids = local ids).
  static Info StandaloneInfo(const Corpus& corpus);
  /// The identity a per-shard snapshot file carries.
  static Info InfoFromManifest(const ShardManifest& manifest);

  ShardService(const Corpus& corpus, Info info,
               ShardServiceOptions options = {});

  Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }
  uint16_t port() const { return server_.bound_port(); }

  /// Open sessions (for tests and /health).
  size_t open_sessions() const;

  /// This server's metric registry (GET /metrics renders it).
  const MetricsRegistry& metrics() const { return metrics_; }
  /// This server's trace store (GET /shard/trace?id=… serves it).
  const TraceStore& traces() const { return traces_; }

 private:
  struct PlaneSession;
  struct ProbeSession;

  /// Wraps a handler with per-endpoint metrics (request counter by response
  /// code + latency histogram) and, when the request carries an
  /// `x-yask-trace` header (shardrpc v2), a per-RPC TraceRecorder whose root
  /// span is parented to the coordinator's propagated span id; the recorded
  /// spans land in traces_ under the propagated trace id.
  HttpServer::Handler Instrumented(const char* endpoint,
                                   HttpServer::Handler inner);

  HttpResponse HandleHealth(const HttpRequest& req);
  HttpResponse HandleMeta(const HttpRequest& req);
  HttpResponse HandleVocab(const HttpRequest& req);
  HttpResponse HandleObjects(const HttpRequest& req);
  HttpResponse HandleFind(const HttpRequest& req);
  HttpResponse HandleTopK(const HttpRequest& req);
  HttpResponse HandleCount(const HttpRequest& req);
  HttpResponse HandlePlaneOpen(const HttpRequest& req);
  HttpResponse HandlePlaneCount(const HttpRequest& req);
  HttpResponse HandlePlaneCountBatch(const HttpRequest& req);
  HttpResponse HandlePlaneCrossings(const HttpRequest& req);
  HttpResponse HandlePlaneClose(const HttpRequest& req);
  HttpResponse HandleProbeOpen(const HttpRequest& req);
  HttpResponse HandleProbeRefine(const HttpRequest& req);
  HttpResponse HandleProbeClose(const HttpRequest& req);
  HttpResponse HandleTrace(const HttpRequest& req);
  HttpResponse HandleMetrics(const HttpRequest& req);

  /// Local id of a global id owned by this shard; nullopt when not owned.
  std::optional<ObjectId> ToLocal(ObjectId global_id) const;
  ObjectId ToGlobal(ObjectId local_id) const {
    return info_.to_global.empty() ? local_id : info_.to_global[local_id];
  }

  std::shared_ptr<PlaneSession> FindPlane(uint64_t id) const;
  std::shared_ptr<ProbeSession> FindProbe(uint64_t id) const;
  /// Drops the session with the smallest last_use (called under
  /// sessions_mu_ when a map exceeds max_sessions_).
  template <typename Map>
  void EvictLeastRecentlyUsed(Map* sessions) const;

  const Corpus* corpus_;
  Info info_;
  LocalShardLeg leg_;  // Global dist norm, global ids.
  MetricsRegistry metrics_;
  TraceStore traces_;
  HttpServer server_;

  mutable std::mutex sessions_mu_;
  uint64_t next_session_id_ = 1;
  mutable uint64_t use_clock_ = 0;  // Recency stamp (under sessions_mu_).
  std::map<uint64_t, std::shared_ptr<PlaneSession>> planes_;
  std::map<uint64_t, std::shared_ptr<ProbeSession>> probes_;
  size_t max_sessions_;
  /// Capacity evictions by session kind — an evicted session forces the
  /// coordinator into a 404 reopen + replay, so silent churn here is a
  /// latency bug a dashboard must see (yask_shard_sessions_evicted_total).
  Counter* plane_evictions_ = nullptr;
  Counter* probe_evictions_ = nullptr;
};

}  // namespace yask

#endif  // YASK_SERVER_SHARD_SERVICE_H_
