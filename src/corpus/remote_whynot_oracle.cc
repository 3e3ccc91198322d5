#include "src/corpus/remote_whynot_oracle.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "src/server/shard_protocol.h"

namespace yask {

namespace {

/// Encodes a batch of (query, target, target score) entries — the body of
/// /shard/count (one method byte per entry) and /shard/probe/open (none).
std::string EncodeTargets(const std::vector<OracleTargetSpec>& specs,
                          const std::vector<double>& target_scores,
                          const std::optional<CountMethod>& method) {
  BufWriter req;
  req.PutVarU64(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    shardrpc::PutQuery(&req, *specs[i].query);
    req.PutU32(specs[i].target);
    req.PutF64(target_scores[i]);
    if (method.has_value()) req.PutU8(static_cast<uint8_t>(*method));
  }
  return req.data();
}

// --- Session failover channel ------------------------------------------------

/// One shard's server-side session (Eqn. (3) plane or Eqn. (4) probe batch)
/// with mid-request failover. The session is replica-sticky: it lives on ONE
/// replica of the shard's ReplicaSet. When a session call fails on the wire —
/// or the replica restarted and answers 404 for an id it no longer knows —
/// the channel re-opens the session on a live replica (possibly the restarted
/// one), REPLAYS the state-mutating calls already applied so the fresh
/// session reaches the same refinement level, and re-issues the failed call.
/// Because every replica boots from the same snapshot, the replayed session
/// is byte-identical to the lost one, and the caller never sees the kill.
///
/// Every session request body leads with an 8-byte session-id slot the
/// channel stamps per attempt. Not thread-safe (one logical why-not question
/// drives one channel at a time, matching the shard server's own per-session
/// serialisation).
class ShardSessionChannel {
 public:
  ShardSessionChannel(const RemoteCorpus& corpus, size_t shard,
                      const char* open_path, const char* close_path)
      : corpus_(&corpus),
        shard_(shard),
        open_path_(open_path),
        close_path_(close_path) {}

  ~ShardSessionChannel() { Close(); }

  /// First open, trying every replica. On success open_response() holds the
  /// raw response (leading U64 session id included — parse and skip it).
  bool Open(std::string open_body) {
    open_body_ = std::move(open_body);
    std::vector<bool> tried(set().num_replicas(), false);
    return Reopen(&tried);
  }

  bool live() const { return session_ != 0; }
  const std::string& open_response() const { return open_resp_; }
  const Status& last_error() const { return last_error_; }

  /// One session call; `body` leads with 8 bytes the channel overwrites with
  /// the session id. `mutates` records the body for replay after failover
  /// (probe refines advance server-side frontiers; plane calls are pure).
  /// Errors only when no replica can serve the session.
  Result<std::string> Call(const char* path, std::string body, bool mutates) {
    if (!live()) {
      return Status::Unavailable("shard " + set().description() +
                                 ": no live session");
    }
    std::vector<bool> tried(set().num_replicas(), false);
    // A restarted replica is healthy but sessionless: it answers 404, we
    // re-open (maybe on it) and retry. Bound those loops — a server that
    // keeps losing fresh sessions is broken, not restarting.
    size_t lost_sessions = 0;
    bool failed_over = false;
    for (;;) {
      StampSession(&body, session_);
      Result<std::string> raw = set().CallOn(replica_, "POST", path, body);
      if (raw.ok()) {
        if (mutates) replay_.push_back({path, body});
        if (failed_over) set().NoteFailover();
        return raw;
      }
      const StatusCode code = raw.status().code();
      if (code == StatusCode::kUnavailable) {
        tried[replica_] = true;  // This replica failed on the wire.
      } else if (code == StatusCode::kNotFound) {
        // Session gone (replica restart or server-side eviction); the
        // replica itself stays eligible for the re-open.
        if (++lost_sessions > set().num_replicas() + 1) {
          last_error_ = raw.status();
          return raw;
        }
      } else {
        return raw;  // Deterministic semantic error; retries would repeat it.
      }
      failed_over = true;
      session_ = 0;
      if (!Reopen(&tried)) {
        return Status::Unavailable("shard " + set().description() +
                                   ": no replica could serve the session: " +
                                   last_error_.message());
      }
    }
  }

  /// Best-effort close; an unreachable replica's session falls to the
  /// server-side LRU cap eventually.
  void Close() {
    if (!live()) return;
    BufWriter req;
    req.PutU64(session_);
    (void)set().CallOn(replica_, "POST", close_path_, req.data());
    session_ = 0;
  }

 private:
  ReplicaSet& set() const { return corpus_->replicas(shard_); }

  static void StampSession(std::string* body, uint64_t session) {
    std::memcpy(body->data(), &session, sizeof(session));
  }

  /// Opens on some not-yet-tried replica and replays the mutation history.
  bool Reopen(std::vector<bool>* tried) {
    session_ = 0;
    for (;;) {
      const std::optional<size_t> r = set().PickReplica(tried);
      if (!r.has_value()) return false;
      if (OpenOn(*r)) return true;
      (*tried)[*r] = true;
    }
  }

  bool OpenOn(size_t r) {
    Result<std::string> raw =
        set().CallOn(r, "POST", open_path_, open_body_);
    if (!raw.ok()) {
      last_error_ = raw.status();
      return false;
    }
    BufReader in(raw->data(), raw->size());
    const uint64_t id = in.GetU64();
    if (!in.ok() || id == 0) {
      last_error_ = Status::InvalidArgument("bad session-open response");
      return false;
    }
    // Replay, in order, what the lost session had already applied. The
    // responses repeat bounds the coordinator has already merged (replicas
    // are deterministic twins), so they are dropped — and NOT re-counted in
    // any stats: the logical work happened once.
    for (const ReplayEntry& entry : replay_) {
      std::string body = entry.body;
      StampSession(&body, id);
      Result<std::string> replayed =
          set().CallOn(r, "POST", entry.path, body);
      if (!replayed.ok()) {
        last_error_ = replayed.status();
        BufWriter close;
        close.PutU64(id);
        (void)set().CallOn(r, "POST", close_path_, close.data());
        return false;
      }
    }
    // A re-open after the first success IS a session replay: the lost
    // session was re-established (history re-applied) on a live replica.
    if (opened_once_) corpus_->session_replays()->Add();
    opened_once_ = true;
    session_ = id;
    replica_ = r;
    open_resp_ = *std::move(raw);
    return true;
  }

  struct ReplayEntry {
    const char* path;
    std::string body;  // Session slot re-stamped at replay time.
  };

  const RemoteCorpus* corpus_;
  size_t shard_;
  const char* open_path_;
  const char* close_path_;
  std::string open_body_;
  std::vector<ReplayEntry> replay_;
  size_t replica_ = 0;
  uint64_t session_ = 0;
  bool opened_once_ = false;
  std::string open_resp_;
  Status last_error_ = Status::Unavailable("never opened");
};

// --- Score-plane handle ------------------------------------------------------

/// One shard's Eqn. (3) session behind its channel.
class RemotePlane : public LegPlane {
 public:
  RemotePlane(const RemoteCorpus& corpus, size_t shard, const Query& query,
              bool optimized)
      : corpus_(&corpus),
        shard_(shard),
        channel_(corpus, shard, shardrpc::kPlaneOpenPath,
                 shardrpc::kPlaneClosePath),
        // The batch route is v3; an older shard gets per-pair calls.
        batch_route_(corpus.meta(shard).protocol_version >= 3) {
    BufWriter req;
    shardrpc::PutQuery(&req, query);
    req.PutU8(optimized ? 1 : 0);
    if (!channel_.Open(req.data())) corpus_->RecordError(channel_.last_error());
  }

  void CountBatch(const std::vector<double>& weights,
                  const std::vector<PlanePoint>& anchors,
                  std::vector<size_t>* counts,
                  size_t* nodes_visited) override {
    // Open failed on every replica: the epoch is already bumped; asking
    // again would just burn doomed round-trips.
    const size_t na = anchors.size();
    if (!channel_.live() || na == 0) return;
    if (!batch_route_) {
      for (size_t wi = 0; wi < weights.size(); ++wi) {
        for (size_t a = 0; a < na; ++a) {
          if (!CountPair(weights[wi], anchors[a], &(*counts)[wi * na + a],
                         nodes_visited)) {
            return;
          }
        }
      }
      return;
    }
    // Sub-grids of at most kMaxPlanePairs pairs: anchor blocks × weight
    // blocks. Every count lands in its (weight, anchor) slot, so the merged
    // grid is the same whatever the split.
    const size_t a_step = std::min<size_t>(na, shardrpc::kMaxPlanePairs);
    const size_t w_step =
        std::max<size_t>(1, shardrpc::kMaxPlanePairs / a_step);
    for (size_t a0 = 0; a0 < na; a0 += a_step) {
      const size_t a1 = std::min(na, a0 + a_step);
      for (size_t w0 = 0; w0 < weights.size(); w0 += w_step) {
        const size_t w1 = std::min(weights.size(), w0 + w_step);
        if (!CountGrid(weights, w0, w1, anchors, a0, a1, counts,
                       nodes_visited)) {
          return;
        }
      }
    }
  }

  void Crossings(const PlanePoint& anchor, double wlo, double whi,
                 std::vector<double>* events, size_t* nodes_visited) override {
    if (!channel_.live()) return;
    BufWriter req;
    req.PutU64(0);  // Session slot, stamped by the channel.
    shardrpc::PutPlanePoint(&req, anchor);
    req.PutF64(wlo);
    req.PutF64(whi);
    Result<std::string> raw = channel_.Call(shardrpc::kPlaneCrossingsPath,
                                            req.data(), /*mutates=*/false);
    if (!raw.ok()) {
      corpus_->RecordError(raw.status());
      return;
    }
    BufReader in(raw->data(), raw->size());
    const uint64_t count = in.GetVarU64();
    if (!in.CheckCount(count, sizeof(double))) {
      corpus_->RecordError(
          Status::InvalidArgument("bad /shard/plane/crossings response"));
      return;
    }
    std::vector<double> found;
    found.reserve(count);
    for (uint64_t i = 0; i < count; ++i) found.push_back(in.GetF64());
    const uint64_t nodes = in.GetU64();
    if (!in.ok()) {
      corpus_->RecordError(in.status());
      return;
    }
    events->insert(events->end(), found.begin(), found.end());
    *nodes_visited += nodes;
  }

  size_t PreferredSweepBatch() const override {
    return batch_route_ ? corpus_->replicas(shard_).adaptive_sweep_batch() : 1;
  }

 private:
  /// One /shard/plane/count_batch over weights[w0, w1) × anchors[a0, a1).
  bool CountGrid(const std::vector<double>& weights, size_t w0, size_t w1,
                 const std::vector<PlanePoint>& anchors, size_t a0, size_t a1,
                 std::vector<size_t>* counts, size_t* nodes_visited) {
    BufWriter req;
    req.PutU64(0);  // Session slot, stamped by the channel.
    req.PutVarU64(w1 - w0);
    for (size_t wi = w0; wi < w1; ++wi) req.PutF64(weights[wi]);
    req.PutVarU64(a1 - a0);
    for (size_t a = a0; a < a1; ++a) shardrpc::PutPlanePoint(&req, anchors[a]);
    Result<std::string> raw = channel_.Call(shardrpc::kPlaneCountBatchPath,
                                            req.data(), /*mutates=*/false);
    if (!raw.ok()) {
      corpus_->RecordError(raw.status());
      return false;
    }
    const size_t width = a1 - a0;
    const size_t pairs = (w1 - w0) * width;
    BufReader in(raw->data(), raw->size());
    if (in.GetVarU64() != pairs) {
      corpus_->RecordError(
          Status::InvalidArgument("bad /shard/plane/count_batch response"));
      return false;
    }
    std::vector<size_t> got(pairs);
    for (size_t& c : got) c = in.GetU64();
    const uint64_t nodes = in.GetU64();
    if (!in.ok()) {
      corpus_->RecordError(in.status());
      return false;
    }
    for (size_t i = 0; i < pairs; ++i) {
      (*counts)[(w0 + i / width) * anchors.size() + a0 + i % width] = got[i];
    }
    *nodes_visited += nodes;
    return true;
  }

  /// One /shard/plane/count (shardrpc v2 shards).
  bool CountPair(double w, const PlanePoint& anchor, size_t* count,
                 size_t* nodes_visited) {
    BufWriter req;
    req.PutU64(0);  // Session slot, stamped by the channel.
    req.PutF64(w);
    shardrpc::PutPlanePoint(&req, anchor);
    Result<std::string> raw = channel_.Call(shardrpc::kPlaneCountPath,
                                            req.data(), /*mutates=*/false);
    if (!raw.ok()) {
      corpus_->RecordError(raw.status());
      return false;
    }
    BufReader in(raw->data(), raw->size());
    const uint64_t got = in.GetU64();
    const uint64_t nodes = in.GetU64();
    if (!in.ok()) {
      corpus_->RecordError(in.status());
      return false;
    }
    *count = got;
    *nodes_visited += nodes;
    return true;
  }

  const RemoteCorpus* corpus_;
  size_t shard_;
  ShardSessionChannel channel_;
  bool batch_route_;
};

// --- Rank-probe handle -------------------------------------------------------

/// One shard's Eqn. (4) probe session behind its channel. A failed shard
/// contributes pinned zeros: bounds stop narrowing but resolved() becomes
/// true, so the caller's refinement loop TERMINATES and the request surfaces
/// the bumped epoch as a 503 — instead of re-issuing a doomed RPC (or
/// spinning) forever.
class RemoteProbes : public LegProbes {
 public:
  RemoteProbes(const RemoteCorpus& corpus, size_t shard,
               const std::vector<OracleTargetSpec>& specs,
               const std::vector<double>& target_scores)
      : corpus_(&corpus),
        channel_(corpus, shard, shardrpc::kProbeOpenPath,
                 shardrpc::kProbeClosePath),
        members_(specs.size()) {
    if (!channel_.Open(EncodeTargets(specs, target_scores, std::nullopt))) {
      corpus_->RecordError(channel_.last_error());
      return;
    }
    const std::string& resp = channel_.open_response();
    BufReader in(resp.data(), resp.size());
    in.GetU64();  // Session id — the channel's concern.
    for (MemberBounds& member : members_) ReadBounds(&in, &member);
    if (!in.ok()) {
      corpus_->RecordError(in.status());
      // Back to the pinned-zero defaults: a half-parsed member with
      // resolved=false would keep the refinement loop asking a shard that
      // can no longer answer.
      channel_.Close();
      members_.assign(members_.size(), MemberBounds{});
    }
  }

  size_t count_lower(size_t m) const override { return members_[m].lower; }
  size_t count_upper(size_t m) const override { return members_[m].upper; }
  bool resolved(size_t m) const override { return members_[m].resolved; }

  void Refine(const std::vector<size_t>& members) override {
    if (!channel_.live()) return;  // Open failed; epoch already bumped.
    // Only the members with an open frontier on THIS shard are sent.
    std::vector<size_t> wanted;
    for (const size_t m : members) {
      if (!members_[m].resolved) wanted.push_back(m);
    }
    if (wanted.empty()) return;
    BufWriter req;
    req.PutU64(0);  // Session slot, stamped by the channel.
    req.PutVarU64(wanted.size());
    for (const size_t m : wanted) req.PutVarU32(static_cast<uint32_t>(m));
    // mutates=true: a refine advances the server-side frontiers, so it
    // joins the channel's replay log — a later failover re-runs the whole
    // history on the fresh replica before anything new is asked of it.
    Result<std::string> raw = channel_.Call(shardrpc::kProbeRefinePath,
                                            req.data(), /*mutates=*/true);
    Status error = raw.status();
    if (raw.ok()) {
      BufReader in(raw->data(), raw->size());
      if (in.GetVarU64() == wanted.size()) {
        for (const size_t m : wanted) ReadBounds(&in, &members_[m]);
        const uint64_t kcr_nodes = in.GetU64();
        const uint64_t scored = in.GetU64();
        if (in.ok()) {
          work_.kcr_nodes_expanded += kcr_nodes;
          work_.objects_scored += scored;
          return;
        }
        error = in.status();
      } else {
        error = Status::InvalidArgument("bad /shard/probe/refine response");
      }
    }
    corpus_->RecordError(error);
    for (const size_t m : wanted) members_[m].resolved = true;
  }

 private:
  struct MemberBounds {
    uint64_t lower = 0;
    uint64_t upper = 0;
    bool resolved = true;  // A failed shard contributes a pinned zero.
  };

  static void ReadBounds(BufReader* in, MemberBounds* member) {
    member->lower = in->GetU64();
    member->upper = in->GetU64();
    member->resolved = in->GetU8() != 0;
  }

  const RemoteCorpus* corpus_;
  ShardSessionChannel channel_;
  std::vector<MemberBounds> members_;
};


// --- RemoteShardLeg ----------------------------------------------------------

/// One shard of a RemoteCorpus as a ShardLeg. The corpus must outlive it.
class RemoteShardLeg : public ShardLeg {
 public:
  RemoteShardLeg(const RemoteCorpus& corpus, size_t shard)
      : corpus_(&corpus), shard_(shard) {}

  size_t size() const override { return meta().object_count; }
  bool has_kcr() const override { return meta().has_kcr; }

  std::optional<Rect> root_mbr() const override {
    if (meta().setr_empty) return std::nullopt;
    return meta().setr_root_mbr;
  }

  TopKResult TopK(const Query& query, double prune_below,
                  TopKStats* stats) const override {
    BufWriter req;
    shardrpc::PutQuery(&req, query);
    req.PutF64(prune_below);
    Result<std::string> raw = corpus_->replicas(shard_).Call(
        "POST", shardrpc::kTopKPath, req.data());
    if (!raw.ok()) {
      corpus_->RecordError(raw.status());
      return {};
    }
    BufReader in(raw->data(), raw->size());
    TopKResult rows = shardrpc::GetScoredRows(&in);
    const uint64_t nodes = in.GetU64();
    const uint64_t scored = in.GetU64();
    if (!in.ok()) {
      corpus_->RecordError(
          Status::InvalidArgument("bad /shard/topk response"));
      return {};
    }
    stats->nodes_popped += nodes;
    stats->objects_scored += scored;
    return rows;
  }

  std::vector<size_t> Count(const std::vector<OracleTargetSpec>& specs,
                            const std::vector<double>& target_scores,
                            CountMethod method) const override {
    std::vector<size_t> counts(specs.size(), 0);
    Result<std::string> raw = corpus_->replicas(shard_).Call(
        "POST", shardrpc::kCountPath,
        EncodeTargets(specs, target_scores, method));
    if (!raw.ok()) {
      corpus_->RecordError(raw.status());
      return counts;
    }
    BufReader in(raw->data(), raw->size());
    if (in.GetVarU64() != specs.size()) {
      corpus_->RecordError(
          Status::InvalidArgument("bad /shard/count response"));
      return counts;
    }
    std::vector<size_t> got(specs.size());
    for (size_t& c : got) c = in.GetU64();
    if (!in.ok()) {
      corpus_->RecordError(in.status());
      return counts;
    }
    return got;
  }

  std::unique_ptr<LegPlane> OpenPlane(const Query& query,
                                      bool optimized) const override {
    return std::make_unique<RemotePlane>(*corpus_, shard_, query, optimized);
  }

  std::unique_ptr<LegProbes> OpenProbes(
      const std::vector<OracleTargetSpec>& specs,
      const std::vector<double>& target_scores) const override {
    return std::make_unique<RemoteProbes>(*corpus_, shard_, specs,
                                          target_scores);
  }

 private:
  const shardrpc::ShardMeta& meta() const { return corpus_->meta(shard_); }

  const RemoteCorpus* corpus_;
  size_t shard_;
};

std::vector<std::unique_ptr<ShardLeg>> RemoteLegs(const RemoteCorpus& corpus) {
  std::vector<std::unique_ptr<ShardLeg>> legs;
  legs.reserve(corpus.num_shards());
  for (size_t s = 0; s < corpus.num_shards(); ++s) {
    legs.push_back(std::make_unique<RemoteShardLeg>(corpus, s));
  }
  return legs;
}

}  // namespace

RemoteShardOracle::RemoteShardOracle(const RemoteCorpus& corpus)
    : WhyNotOracle(RemoteLegs(corpus), corpus.pool(), corpus.dist_norm(),
                   [&corpus](ObjectId id) -> const SpatialObject& {
                     return corpus.Object(id);
                   }) {}

}  // namespace yask
