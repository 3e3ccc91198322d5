#include "src/corpus/remote_corpus.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "src/common/geometry.h"
#include "src/common/string_util.h"
#include "src/common/trace.h"
#include "src/common/timer.h"
#include "src/snapshot/snapshot_codec.h"

namespace yask {

// --- RemoteShard -------------------------------------------------------------

RemoteShard::RemoteShard(std::string host, uint16_t port,
                         RemoteShardOptions options,
                         const MetricsRegistry* metrics)
    : host_(std::move(host)), port_(port), options_(options) {
  if (metrics == nullptr) {
    own_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = own_metrics_.get();
  }
  const MetricLabels labels{{"replica", endpoint()}};
  requests_ = metrics->GetCounter("yask_replica_requests_total", labels);
  errors_ = metrics->GetCounter("yask_replica_errors_total", labels);
  retries_ = metrics->GetCounter("yask_replica_retries_total", labels);
  latency_ = metrics->GetHistogram("yask_replica_rpc_latency_ms", labels);
  const size_t channels =
      options_.mux_connections == 0 ? 1 : options_.mux_connections;
  channels_.reserve(channels);
  for (size_t i = 0; i < channels; ++i) {
    channels_.push_back(std::make_unique<PipelinedHttpChannel>(host_, port_));
  }
  trace_channel_ = std::make_unique<PipelinedHttpChannel>(host_, port_);
}

PipelinedHttpChannel* RemoteShard::PickChannel() {
  const size_t n = channels_.size();
  const size_t start = rr_.fetch_add(1, std::memory_order_relaxed) % n;
  PipelinedHttpChannel* best = channels_[start].get();
  size_t best_load = best->inflight();
  for (size_t i = 1; i < n && best_load > 0; ++i) {
    PipelinedHttpChannel* ch = channels_[(start + i) % n].get();
    const size_t load = ch->inflight();
    if (load < best_load) {
      best = ch;
      best_load = load;
    }
  }
  return best;
}

Result<std::string> RemoteShard::Call(const std::string& method,
                                      const std::string& path,
                                      std::string_view body) {
  // One span per replica attempt sequence: a mid-request failover shows up
  // in the trace as a second rpc span on the sibling replica.
  ScopedSpan span("rpc " + path, endpoint());
  Timer timer;
  Result<std::string> out = CallInternal(method, path, body);
  latency_->Observe(timer.ElapsedMillis());
  return out;
}

Result<std::string> RemoteShard::CallInternal(const std::string& method,
                                              const std::string& path,
                                              std::string_view body) {
  // Propagate the trace context (if any) on every attempt; old servers
  // ignore the header, untraced requests send nothing.
  const std::string trace_header = TraceHeaderLine();

  Status last = Status::Unavailable("no attempt made");
  // Each attempt pipelines onto a channel (rotating on retry, so a retry
  // lands on a different connection while the failed one redials lazily).
  // The channel absorbs keep-alive staleness itself: a half-closed idle
  // socket is redialled WITHOUT counting as an attempt, so recycling cannot
  // burn the retry budget; `attempted` only flips once a live connection
  // carried the request — connect failures don't move the requests meter.
  for (int attempt = 0; attempt <= options_.retries; ++attempt) {
    if (attempt > 0) retries_->Add();
    PipelinedHttpChannel* channel = PickChannel();
    bool attempted = false;
    int http_status = 0;
    Result<std::string> resp = channel->Call(
        method, path, body, options_.connect_timeout_ms,
        options_.call_deadline_ms, &http_status, trace_header, &attempted);
    if (attempted) requests_->Add();
    if (!resp.ok()) {
      last = resp.status();
      continue;
    }
    if (http_status == 200) return resp;
    // Semantic error: surface immediately (a retry would just repeat it).
    const std::string detail = "shard " + host_ + ":" +
                               std::to_string(port_) + " " + path + " -> " +
                               std::to_string(http_status) + " " + *resp;
    switch (http_status) {
      case 404: return Status::NotFound(detail);
      case 501: return Status::FailedPrecondition(detail);
      default: return Status::Unavailable(detail);
    }
  }
  errors_->Add();
  return Status::Unavailable("shard " + host_ + ":" + std::to_string(port_) +
                             " unreachable: " + last.message());
}

Result<std::string> RemoteShard::CallUnmetered(const std::string& method,
                                               const std::string& path,
                                               std::string_view body,
                                               int deadline_ms) {
  int http_status = 0;
  // A dead replica must not stall the caller for the full RPC dial budget:
  // the read's own deadline also bounds the (re)dial.
  const int connect_ms = std::min(options_.connect_timeout_ms, deadline_ms);
  // Never the metered channels: a transport failure on a pipelined channel
  // fails every call in flight on it, so a trace read timing out at the
  // head of a shared pipeline would fail concurrent metered RPCs — moving
  // the very requests/errors meters (and error epoch) the trace reader is
  // trying to observe. Trace reads get their own keep-alive channel.
  Result<std::string> resp = trace_channel_->Call(method, path, body,
                                                  connect_ms, deadline_ms,
                                                  &http_status);
  if (!resp.ok()) return resp;
  if (http_status != 200) {
    return Status::Unavailable("shard " + endpoint() + " " + path + " -> " +
                               std::to_string(http_status));
  }
  return resp;
}

namespace {

/// Replicas booted from the same shard snapshot must agree on the shard's
/// whole identity; any disagreement means the operator pointed a group at
/// mixed builds, and failover between them would corrupt results.
bool SameShardIdentity(const shardrpc::ShardMeta& a,
                       const shardrpc::ShardMeta& b) {
  return a.shard_index == b.shard_index && a.shard_count == b.shard_count &&
         a.object_count == b.object_count && a.dist_norm == b.dist_norm &&
         a.global_bounds == b.global_bounds && a.has_kcr == b.has_kcr &&
         a.setr_empty == b.setr_empty &&
         a.setr_root_mbr == b.setr_root_mbr && a.global_ids == b.global_ids;
}

/// The Connect-time protocol handshake, shared with lazy validation.
Status CheckProtocolRange(const std::string& endpoint,
                          const shardrpc::ShardMeta& meta) {
  if (meta.protocol_version < shardrpc::kMinSupportedProtocolVersion ||
      meta.protocol_version > shardrpc::kProtocolVersion) {
    return Status::FailedPrecondition(
        endpoint + " speaks shard protocol version " +
        std::to_string(meta.protocol_version) + ", coordinator supports " +
        std::to_string(shardrpc::kMinSupportedProtocolVersion) + ".." +
        std::to_string(shardrpc::kProtocolVersion));
  }
  return Status::OK();
}

}  // namespace

// --- ReplicaSet --------------------------------------------------------------

ReplicaSet::ReplicaSet(std::vector<std::unique_ptr<RemoteShard>> replicas,
                       RemoteShardOptions options,
                       const MetricsRegistry* metrics, uint32_t shard_index)
    : replicas_(std::move(replicas)), options_(options) {
  health_.reserve(replicas_.size());
  for (size_t r = 0; r < replicas_.size(); ++r) {
    health_.push_back(std::make_unique<Health>());
  }
  const MetricLabels labels{{"shard", std::to_string(shard_index)}};
  failovers_ = metrics->GetCounter("yask_failovers_total", labels);
  cooldown_entries_ =
      metrics->GetCounter("yask_cooldown_entries_total", labels);
  lazy_validations_ =
      metrics->GetCounter("yask_replica_lazy_validations_total", labels);
  lazy_rejections_ =
      metrics->GetCounter("yask_replica_rejections_total", labels);
  call_latency_ = metrics->GetHistogram("yask_shard_rpc_latency_ms", labels);
  metrics->AddGaugeCallback("yask_replicas_pending_validation", labels,
                            [this] {
                              double pending = 0;
                              for (size_t r = 0; r < replicas_.size(); ++r) {
                                if (validation(r) ==
                                    ReplicaValidation::kPending) {
                                  ++pending;
                                }
                              }
                              return pending;
                            });
  // Computed at scrape time; `this` lives behind a unique_ptr in the corpus
  // that also owns the registry, so the callback cannot outlive the set.
  metrics->AddGaugeCallback("yask_replicas_cooling", labels, [this] {
    double cooling = 0;
    for (size_t r = 0; r < replicas_.size(); ++r) {
      if (InCooldown(r)) ++cooling;
    }
    return cooling;
  });
  metrics->AddGaugeCallback("yask_shard_rpc_ewma_ms", labels,
                            [this] { return rpc_ewma_ms(); });
  metrics->AddGaugeCallback("yask_sweep_batch_events", labels, [this] {
    return static_cast<double>(adaptive_sweep_batch());
  });
}

void ReplicaSet::ObserveLatency(double ms) const {
  call_latency_->Observe(ms);
  // EWMA seeded by the first sample. CAS loop: concurrent fan-out threads
  // land observations here, and a lost update would silently drop samples.
  double prev = rpc_ewma_ms_->load(std::memory_order_relaxed);
  double next;
  do {
    next = prev == 0.0 ? ms : prev + 0.2 * (ms - prev);
  } while (!rpc_ewma_ms_->compare_exchange_weak(prev, next,
                                                std::memory_order_relaxed));
}

size_t ReplicaSet::adaptive_sweep_batch() const {
  const double events = 8.0 + 4.0 * rpc_ewma_ms();
  return static_cast<size_t>(std::min(256.0, std::max(8.0, events)));
}

std::string ReplicaSet::description() const {
  std::string out;
  for (const auto& replica : replicas_) {
    if (!out.empty()) out += '|';
    out += replica->endpoint();
  }
  return out;
}

bool ReplicaSet::InCooldown(size_t r) const {
  const int64_t until = health_[r]->cooldown_until_ms.load();
  return until != 0 && NowMillis() < until;
}

void ReplicaSet::MarkFailure(size_t r) const {
  Health& h = *health_[r];
  const uint32_t fails = h.consecutive_failures.fetch_add(1) + 1;
  if (options_.cooldown_base_ms <= 0) return;
  cooldown_entries_->Add();
  // Exponential backoff: base * 2^(fails-1), capped. A replica that keeps
  // failing is probed ever less often — but always again eventually, which
  // is how a restarted process rejoins the rotation.
  int64_t cooldown = options_.cooldown_base_ms;
  for (uint32_t i = 1; i < fails && cooldown < options_.cooldown_max_ms; ++i) {
    cooldown *= 2;
  }
  cooldown = std::min<int64_t>(cooldown, options_.cooldown_max_ms);
  h.cooldown_until_ms.store(NowMillis() + cooldown);
}

void ReplicaSet::MarkSuccess(size_t r) const {
  Health& h = *health_[r];
  h.consecutive_failures.store(0);
  h.cooldown_until_ms.store(0);
}

void ReplicaSet::SetExpectedIdentity(const shardrpc::ShardMeta& meta) {
  expected_meta_ = std::make_unique<shardrpc::ShardMeta>(meta);
}

void ReplicaSet::MarkPendingValidation(size_t r) const {
  health_[r]->validation.store(
      static_cast<uint8_t>(ReplicaValidation::kPending),
      std::memory_order_release);
  // A cooldown so routing prefers the already-validated siblings; when it
  // expires the replica is probed, which runs the deferred validation.
  MarkFailure(r);
}

Status ReplicaSet::EnsureValidated(size_t r) const {
  switch (validation(r)) {
    case ReplicaValidation::kValidated:
      return Status::OK();
    case ReplicaValidation::kRejected:
      return Status::FailedPrecondition(
          "replica " + replicas_[r]->endpoint() +
          " was rejected: it presented a different shard identity than its "
          "group " + description());
    case ReplicaValidation::kPending:
      break;
  }
  // First contact with a replica that was down at Connect: run the deferred
  // handshake. Concurrent validators are benign — the check is idempotent
  // and both land on the same verdict.
  RemoteShard& replica = *replicas_[r];
  Result<std::string> raw = replica.Call("GET", shardrpc::kMetaPath, "");
  if (!raw.ok()) {
    // Still unreachable (or a semantic error from something that is not a
    // shard server) — stays pending, the caller fails over.
    return Status::Unavailable("replica " + replica.endpoint() +
                               " still pending validation: " +
                               raw.status().message());
  }
  BufReader in(raw->data(), raw->size());
  Result<shardrpc::ShardMeta> meta = shardrpc::GetShardMeta(&in);
  Status verdict = Status::OK();
  if (!meta.ok()) {
    verdict = Status::FailedPrecondition(replica.endpoint() +
                                         " answered with undecodable shard "
                                         "meta: " + meta.status().message());
  } else if (Status range = CheckProtocolRange(replica.endpoint(), *meta);
             !range.ok()) {
    verdict = range;
  } else if (expected_meta_ != nullptr &&
             !SameShardIdentity(*expected_meta_, *meta)) {
    verdict = Status::FailedPrecondition(
        replica.endpoint() + " disagrees with its replica group " +
        description() +
        " on the shard identity — replicas of one shard must be booted from "
        "the same shard snapshot");
  }
  if (!verdict.ok()) {
    // Permanently out: failing over onto a wrong-snapshot replica would
    // corrupt results, so routing must never pick it again.
    health_[r]->validation.store(
        static_cast<uint8_t>(ReplicaValidation::kRejected),
        std::memory_order_release);
    lazy_rejections_->Add();
    return verdict;
  }
  health_[r]->validation.store(
      static_cast<uint8_t>(ReplicaValidation::kValidated),
      std::memory_order_release);
  lazy_validations_->Add();
  return Status::OK();
}

std::optional<size_t> ReplicaSet::PickReplica(
    const std::vector<bool>* exclude) const {
  const size_t n = replicas_.size();
  const size_t start = rr_.fetch_add(1, std::memory_order_relaxed) % n;
  // Pass 0 takes healthy replicas only; pass 1 accepts the cooling ones —
  // when everything is cooling, an attempt that might succeed beats a
  // guaranteed error.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < n; ++i) {
      const size_t r = (start + i) % n;
      if (exclude != nullptr && (*exclude)[r]) continue;
      // A rejected replica serves the WRONG data — never routable.
      if (validation(r) == ReplicaValidation::kRejected) continue;
      if (pass == 0 && InCooldown(r)) continue;
      return r;
    }
  }
  return std::nullopt;
}

Result<std::string> ReplicaSet::Call(const std::string& method,
                                     const std::string& path,
                                     std::string_view body) const {
  Timer timer;
  Status last = Status::Unavailable("no replica attempted");
  std::vector<bool> tried(replicas_.size(), false);
  bool failed_over = false;
  // One routing policy: PickReplica prefers healthy replicas and only then
  // the cooling leftovers; each wire failure excludes that replica and asks
  // again until the set is exhausted.
  while (const std::optional<size_t> r = PickReplica(&tried)) {
    tried[*r] = true;
    // Lazy connect: a replica that was down at Connect validates on first
    // contact. Still-dead or rejected replicas fail over like wire errors.
    if (Status v = EnsureValidated(*r); !v.ok()) {
      last = v;
      failed_over = true;
      if (v.code() == StatusCode::kUnavailable) MarkFailure(*r);
      continue;
    }
    Result<std::string> resp = replicas_[*r]->Call(method, path, body);
    if (resp.ok() || resp.status().code() != StatusCode::kUnavailable) {
      // The wire worked; a semantic HTTP error is an answer, and retrying
      // it on a sibling would just repeat it.
      MarkSuccess(*r);
      if (failed_over) NoteFailover();
      ObserveLatency(timer.ElapsedMillis());
      return resp;
    }
    last = resp.status();
    failed_over = true;
    MarkFailure(*r);
  }
  ObserveLatency(timer.ElapsedMillis());
  return Status::Unavailable("all " + std::to_string(replicas_.size()) +
                             " replica(s) of " + description() +
                             " failed: " + last.message());
}

Result<std::string> ReplicaSet::CallOn(size_t r, const std::string& method,
                                       const std::string& path,
                                       std::string_view body) const {
  // Session placement may land on a pending replica: validate before any
  // session state is built on it. Surface failures as Unavailable so the
  // session owner runs its normal failover + replay.
  if (Status v = EnsureValidated(r); !v.ok()) {
    if (v.code() == StatusCode::kUnavailable) MarkFailure(r);
    return Status::Unavailable(v.message());
  }
  Timer timer;
  Result<std::string> resp = replicas_[r]->Call(method, path, body);
  ObserveLatency(timer.ElapsedMillis());
  if (!resp.ok() && resp.status().code() == StatusCode::kUnavailable) {
    MarkFailure(r);
  } else {
    MarkSuccess(r);
  }
  return resp;
}

uint64_t ReplicaSet::requests() const {
  uint64_t total = 0;
  for (const auto& replica : replicas_) total += replica->requests();
  return total;
}

// --- RemoteCorpus ------------------------------------------------------------

Result<RemoteCorpus> RemoteCorpus::Connect(
    const std::vector<std::string>& endpoints,
    const RemoteShardOptions& options) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("no shard endpoints given");
  }

  // The registry the replicas meter into; adopted by the corpus at the end
  // (unique_ptr keeps the instrument addresses stable across the move).
  auto metrics = std::make_unique<MetricsRegistry>();

  // Dial every replica of every group and fetch its identity. Lazy connect:
  // a replica the dial cannot REACH joins its group as pending (validated on
  // first contact), so one rebooting process never blocks coordinator boot.
  // A replica that ANSWERS anything must pass the full handshake now — and a
  // group with zero live replicas fails fast, because its identity (and the
  // shard set's very shape) is unknowable without at least one answer.
  struct DialedGroup {
    std::vector<std::unique_ptr<RemoteShard>> replicas;
    std::vector<size_t> pending;  // Indices the dial could not reach.
    bool has_meta = false;
    shardrpc::ShardMeta meta;  // The agreed group identity (live replicas).
    std::string label;         // The group as given (error messages).
  };
  std::vector<DialedGroup> groups;
  for (const std::string& group_spec : endpoints) {
    DialedGroup group;
    group.label = group_spec;
    Status last_dial = Status::OK();
    for (const std::string& endpoint : Split(group_spec, '|')) {
      const size_t colon = endpoint.rfind(':');
      uint64_t port = 0;
      if (colon == std::string::npos || colon == 0 ||
          !ParseUint64(endpoint.substr(colon + 1), &port) || port == 0 ||
          port > 65535) {
        return Status::InvalidArgument(
            "bad shard endpoint '" + endpoint +
            "' (want host:port, replicas '|'-joined)");
      }
      auto replica = std::make_unique<RemoteShard>(
          endpoint.substr(0, colon), static_cast<uint16_t>(port), options,
          metrics.get());
      Result<std::string> raw = replica->Call("GET", shardrpc::kMetaPath, "");
      if (!raw.ok()) {
        if (raw.status().code() != StatusCode::kUnavailable) {
          // The endpoint ANSWERED with a semantic error — that is a live
          // process that is not a compatible shard server, not an outage.
          return raw.status();
        }
        last_dial = raw.status();
        group.pending.push_back(group.replicas.size());
        group.replicas.push_back(std::move(replica));
        continue;
      }
      BufReader in(raw->data(), raw->size());
      Result<shardrpc::ShardMeta> meta = shardrpc::GetShardMeta(&in);
      if (!meta.ok()) {
        return Status::InvalidArgument(endpoint + ": bad shard meta: " +
                                       meta.status().message());
      }
      if (Status range = CheckProtocolRange(endpoint, *meta); !range.ok()) {
        return range;
      }
      if (!group.has_meta) {
        group.meta = std::move(meta).value();
        group.has_meta = true;
      } else if (!SameShardIdentity(group.meta, *meta)) {
        return Status::InvalidArgument(
            endpoint + " disagrees with its replica group '" + group_spec +
            "' on the shard identity — replicas of one shard must be booted "
            "from the same shard snapshot");
      }
      group.replicas.push_back(std::move(replica));
    }
    // Split keeps empty fields, so even "" yields one (invalid) endpoint and
    // the loop above has already rejected it — every group here is non-empty.
    if (!group.has_meta) {
      return Status::Unavailable(
          "every replica of shard group '" + group_spec +
          "' is unreachable — a whole-group outage cannot be deferred (the "
          "shard's identity is unknown): " + last_dial.message());
    }
    groups.push_back(std::move(group));
  }

  // Reassemble by manifest identity, exactly one group per shard index.
  const uint32_t shard_count = groups[0].meta.shard_count;
  if (shard_count != groups.size()) {
    return Status::InvalidArgument(
        groups[0].label + " belongs to a " + std::to_string(shard_count) +
        "-shard corpus, but " + std::to_string(groups.size()) +
        " endpoint groups were given");
  }
  RemoteCorpus corpus;
  corpus.shards_.resize(shard_count);
  corpus.metas_.resize(shard_count);
  for (DialedGroup& group : groups) {
    const shardrpc::ShardMeta& meta = group.meta;
    if (meta.shard_count != shard_count) {
      return Status::InvalidArgument(group.label + " claims " +
                                     std::to_string(meta.shard_count) +
                                     " shards, expected " +
                                     std::to_string(shard_count));
    }
    if (meta.shard_index >= shard_count ||
        corpus.shards_[meta.shard_index] != nullptr) {
      return Status::InvalidArgument(
          group.label + " claims shard index " +
          std::to_string(meta.shard_index) +
          (meta.shard_index < shard_count ? ", already served by another "
                                            "endpoint group"
                                          : ", out of range"));
    }
    if (!(meta.global_bounds == groups[0].meta.global_bounds)) {
      return Status::InvalidArgument(group.label +
                                     " disagrees on the global bounds");
    }
    if (meta.dist_norm != groups[0].meta.dist_norm) {
      return Status::InvalidArgument(
          group.label + " disagrees on the SDist normaliser (" +
          std::to_string(meta.dist_norm) + " vs " +
          std::to_string(groups[0].meta.dist_norm) +
          ") — shard snapshots from different builds?");
    }
    const std::vector<size_t> pending = std::move(group.pending);
    auto set = std::make_unique<ReplicaSet>(
        std::move(group.replicas), options, metrics.get(), meta.shard_index);
    // Unreached replicas owe the identity handshake on first contact.
    set->SetExpectedIdentity(meta);
    for (const size_t r : pending) set->MarkPendingValidation(r);
    corpus.shards_[meta.shard_index] = std::move(set);
    corpus.metas_[meta.shard_index] = meta;
  }

  // Global ids must tile 0..total-1 exactly (same check as ShardedCorpus::
  // Load): a missing or doubled object would silently corrupt results.
  uint64_t total = 0;
  for (const shardrpc::ShardMeta& meta : corpus.metas_) {
    total += meta.object_count;
  }
  constexpr auto kUnset = static_cast<uint32_t>(-1);
  corpus.shard_of_.assign(static_cast<size_t>(total), kUnset);
  for (uint32_t s = 0; s < shard_count; ++s) {
    const shardrpc::ShardMeta& meta = corpus.metas_[s];
    if (meta.global_ids.empty()) {
      // Identity mapping is only coherent for a standalone single shard.
      if (shard_count != 1) {
        return Status::InvalidArgument(
            "shard " + std::to_string(s) +
            " reports an identity id map inside a multi-shard corpus");
      }
      std::fill(corpus.shard_of_.begin(), corpus.shard_of_.end(), 0u);
      break;
    }
    for (const ObjectId global : meta.global_ids) {
      if (global >= total || corpus.shard_of_[global] != kUnset) {
        return Status::InvalidArgument(
            "shard metas disagree: global object id " +
            std::to_string(global) + " is out of range or duplicated");
      }
      corpus.shard_of_[global] = s;
    }
  }

  corpus.bounds_ = corpus.metas_[0].global_bounds;
  corpus.dist_norm_ = corpus.metas_[0].dist_norm;
  corpus.has_kcr_ = true;
  for (const shardrpc::ShardMeta& meta : corpus.metas_) {
    corpus.has_kcr_ = corpus.has_kcr_ && meta.has_kcr;
  }

  // The shared vocabulary: fetched once — every shard serialises the same
  // instance (the partitioner shares it), so shard 0's copy is THE copy.
  {
    Result<std::string> raw =
        corpus.shards_[0]->Call("GET", shardrpc::kVocabPath, "");
    if (!raw.ok()) return raw.status();
    BufReader in(raw->data(), raw->size());
    auto vocab = std::make_unique<Vocabulary>();
    if (Status s = LoadVocabulary(&in, vocab.get()); !s.ok()) {
      return Status::InvalidArgument("bad shard vocabulary: " + s.message());
    }
    corpus.vocab_ = std::move(vocab);
  }

  // Coordinator fan-out pool. Unlike the in-process ShardedCorpus::pool()
  // (CPU-bound shard scans, where a 1-core host gains nothing from extra
  // threads), remote fan-out tasks BLOCK on the wire — without a pool every
  // multi-shard plane count or crossing collection degrades to sequential
  // per-shard RPCs and one slow shard serializes the whole round. So every
  // multi-shard corpus gets a pool, one thread per shard unless overridden.
  if (shard_count > 1) {
    size_t threads = options.fanout_threads;
    if (threads == 0) threads = shard_count;
    threads = std::min(threads, static_cast<size_t>(shard_count));
    corpus.pool_ = std::make_unique<ThreadPool>(threads);
  }
  corpus.session_replays_ =
      metrics->GetCounter("yask_session_replays_total");
  corpus.metrics_ = std::move(metrics);
  return corpus;
}

std::vector<uint32_t> RemoteCorpus::shards_without_kcr() const {
  std::vector<uint32_t> missing;
  for (uint32_t s = 0; s < metas_.size(); ++s) {
    if (!metas_[s].has_kcr) missing.push_back(s);
  }
  return missing;
}

Status RemoteCorpus::last_error() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->last;
}

void RemoteCorpus::RecordError(const Status& status) const {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->last = status;
  }
  state_->error_epoch.fetch_add(1);
}

uint64_t RemoteCorpus::total_requests() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->requests();
  return total;
}

uint64_t RemoteCorpus::total_failovers() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->failovers();
  return total;
}

const SpatialObject& RemoteCorpus::Object(ObjectId global_id) const {
  static const SpatialObject kEmpty{};
  {
    std::lock_guard<std::mutex> lock(cache_->mu);
    const auto it = cache_->map.find(global_id);
    if (it != cache_->map.end()) return *it->second;
  }
  if (global_id >= shard_of_.size()) {
    RecordError(Status::NotFound("object " + std::to_string(global_id) +
                                 " out of range"));
    return kEmpty;
  }
  Prefetch({global_id});
  std::lock_guard<std::mutex> lock(cache_->mu);
  const auto it = cache_->map.find(global_id);
  return it != cache_->map.end() ? *it->second : kEmpty;
}

void RemoteCorpus::Prefetch(const std::vector<ObjectId>& global_ids) const {
  // Group the ids not yet cached by owning shard.
  std::vector<std::vector<ObjectId>> wanted(shards_.size());
  {
    std::lock_guard<std::mutex> lock(cache_->mu);
    for (const ObjectId global : global_ids) {
      if (global >= shard_of_.size()) continue;
      if (cache_->map.find(global) != cache_->map.end()) continue;
      wanted[shard_of_[global]].push_back(global);
    }
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (wanted[s].empty()) continue;
    std::sort(wanted[s].begin(), wanted[s].end());
    wanted[s].erase(std::unique(wanted[s].begin(), wanted[s].end()),
                    wanted[s].end());
    BufWriter req;
    req.PutVarU64(wanted[s].size());
    for (const ObjectId global : wanted[s]) req.PutU32(global);
    Result<std::string> raw =
        shards_[s]->Call("POST", shardrpc::kObjectsPath, req.data());
    if (!raw.ok()) {
      RecordError(raw.status());
      continue;
    }
    BufReader in(raw->data(), raw->size());
    const uint64_t count = in.GetVarU64();
    std::lock_guard<std::mutex> lock(cache_->mu);
    for (uint64_t i = 0; i < count && in.ok(); ++i) {
      SpatialObject o = shardrpc::GetObject(&in);
      if (!in.ok()) break;
      const ObjectId global = o.id;
      cache_->map[global] = std::make_unique<SpatialObject>(std::move(o));
    }
    if (!in.ok()) {
      RecordError(Status::InvalidArgument("bad /shard/objects response"));
    }
  }
}

ObjectId RemoteCorpus::FindByName(const std::string& name) const {
  BufWriter req;
  req.PutString(name);
  std::vector<ObjectId> found(shards_.size(), kInvalidObject);
  FanOut(pool_.get(), shards_.size(), [&](size_t s) {
    Result<std::string> raw =
        shards_[s]->Call("POST", shardrpc::kFindPath, req.data());
    if (!raw.ok()) {
      RecordError(raw.status());
      return;
    }
    BufReader in(raw->data(), raw->size());
    found[s] = in.GetU32();
    if (!in.ok()) found[s] = kInvalidObject;
  });
  // The smallest matching global id across shards IS the global first match
  // (within a shard, local order is global order restricted to the shard).
  ObjectId best = kInvalidObject;
  for (const ObjectId id : found) {
    if (id != kInvalidObject && (best == kInvalidObject || id < best)) {
      best = id;
    }
  }
  return best;
}

}  // namespace yask
