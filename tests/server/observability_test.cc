// Observability acceptance: the /metrics and /trace surfaces across the
// three corpus layouts (in-process Corpus, in-process ShardedCorpus, remote
// coordinator over a ShardService fleet).
//   * /query and /whynot payloads stay BYTE-identical across layouts with
//     tracing always on — instrumentation must not leak into the contract;
//   * every layout records the same engine-level span skeleton (query/topk,
//     whynot/*, kw/refine_level) for the same request shape, and the two
//     multi-shard layouts (in-process sharded, remote) also record the same
//     top-k fan-out spans (topk/fanout, topk/merge) — one fan-out, two legs;
//   * the remote layout additionally shows per-replica rpc spans AND
//     shard-side child spans stitched in by the propagated trace id, with
//     each shard span's parent being a coordinator rpc span;
//   * GET /metrics exposes the expected families on the coordinator and on
//     the shard server, and /log hands out the trace ids /trace serves;
//   * a slow-trace threshold of 0 pins every trace.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/corpus/corpus.h"
#include "src/corpus/remote_corpus.h"
#include "src/corpus/sharded_corpus.h"
#include "src/server/json.h"
#include "src/server/shard_protocol.h"
#include "src/server/shard_service.h"
#include "src/server/yask_service.h"
#include "src/storage/hotel_generator.h"

namespace yask {
namespace {

constexpr char kQueryBody[] =
    "{\"x\":114.158,\"y\":22.281,\"keywords\":\"clean comfortable\",\"k\":3}";
constexpr char kWhyNotBody[] =
    "{\"query_id\":1,\"missing\":[81],\"model\":\"both\"}";

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

  ~ShardFleet() {
    for (auto& service : services) service->Stop();
  }
};

std::string Fetch(uint16_t port, const std::string& method,
                  const std::string& path, const std::string& body = "",
                  int expect_status = 200) {
  int status = 0;
  auto result = HttpFetch(port, method, path, body, &status);
  EXPECT_TRUE(result.ok()) << method << " " << path;
  EXPECT_EQ(status, expect_status) << method << " " << path << ": "
                                   << (result.ok() ? *result : "");
  return result.ok() ? *result : "";
}

/// Runs one query + one why-not and returns the why-not's trace id (from
/// GET /log) plus both payloads with the timing field stripped.
struct Driven {
  std::string query_payload;
  std::string whynot_payload;
  std::string query_trace_id;
  std::string whynot_trace_id;
};

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

Driven Drive(const YaskService& service) {
  Driven out;
  out.query_payload = Normalized(
      Fetch(service.port(), "POST", "/query", kQueryBody));
  out.whynot_payload = Normalized(
      Fetch(service.port(), "POST", "/whynot", kWhyNotBody));

  const std::string log = Fetch(service.port(), "GET", "/log");
  auto parsed = JsonValue::Parse(log);
  EXPECT_TRUE(parsed.ok());
  const JsonValue& entries = parsed->Get("entries");
  EXPECT_EQ(entries.size(), 2u);
  out.query_trace_id = entries.At(0).Get("trace_id").as_string();
  out.whynot_trace_id = entries.At(1).Get("trace_id").as_string();
  EXPECT_EQ(out.query_trace_id.size(), 16u);
  EXPECT_EQ(out.whynot_trace_id.size(), 16u);
  EXPECT_NE(out.query_trace_id, out.whynot_trace_id);
  return out;
}

JsonValue FetchTrace(const YaskService& service, const std::string& id) {
  const std::string body = Fetch(service.port(), "GET", "/trace/" + id);
  auto parsed = JsonValue::Parse(body);
  EXPECT_TRUE(parsed.ok()) << body;
  EXPECT_EQ(parsed->Get("trace_id").as_string(), id);
  return parsed.ok() ? parsed.value() : JsonValue();
}

/// The span-name skeleton of a trace: engine-level stages, plus the top-k
/// fan-out spans when `with_fanout` (multi-shard layouts record those; a
/// single corpus has nothing to fan out). Transport spans — rpc, shard
/// endpoints — are remote-mode extras by design.
std::multiset<std::string> Skeleton(const JsonValue& trace,
                                    bool with_fanout = false) {
  std::multiset<std::string> names;
  for (const JsonValue& span : trace.Get("spans").array_items()) {
    const std::string& name = span.Get("name").as_string();
    if (name.rfind("whynot/", 0) == 0 || name.rfind("kw/", 0) == 0 ||
        name.rfind("query/", 0) == 0 || name.rfind("POST ", 0) == 0 ||
        (with_fanout && name.rfind("topk/", 0) == 0)) {
      names.insert(name);
    }
  }
  return names;
}

TEST(ObservabilityTest, PayloadParityAndSpanSkeletonAcrossLayouts) {
  const ObjectStore store = GenerateHotelDataset();

  // Layout 1: one full corpus.
  const Corpus corpus = CorpusBuilder().Build(GenerateHotelDataset());
  YaskService single(corpus);
  ASSERT_TRUE(single.Start().ok());
  const Driven single_run = Drive(single);

  // Layout 2: in-process sharded. Its fan-out runs on a pool like the remote
  // coordinator's (a pool-less corpus searches the legs sequentially and
  // records no separate merge span).
  CorpusOptions pooled;
  pooled.fanout_threads = 2;
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2), pooled);
  YaskService local(sharded);
  ASSERT_TRUE(local.Start().ok());
  const Driven local_run = Drive(local);

  // Layout 3: remote coordinator over a 2-shard fleet.
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  const RemoteCorpus remote_corpus = std::move(connected).value();
  YaskService remote(remote_corpus);
  ASSERT_TRUE(remote.Start().ok());
  const Driven remote_run = Drive(remote);

  // Byte parity with tracing on: instrumentation never leaks into payloads.
  EXPECT_EQ(single_run.query_payload, local_run.query_payload);
  EXPECT_EQ(single_run.query_payload, remote_run.query_payload);
  EXPECT_EQ(single_run.whynot_payload, local_run.whynot_payload);
  EXPECT_EQ(single_run.whynot_payload, remote_run.whynot_payload);

  // Same engine-level span skeleton for the same request shape.
  const JsonValue single_trace = FetchTrace(single, single_run.whynot_trace_id);
  const JsonValue local_trace = FetchTrace(local, local_run.whynot_trace_id);
  const JsonValue remote_trace = FetchTrace(remote, remote_run.whynot_trace_id);
  const auto skeleton = Skeleton(single_trace);
  EXPECT_EQ(skeleton, Skeleton(local_trace));
  EXPECT_EQ(skeleton, Skeleton(remote_trace));
  EXPECT_EQ(skeleton.count("POST /whynot"), 1u);
  EXPECT_EQ(skeleton.count("whynot/explain"), 1u);
  EXPECT_EQ(skeleton.count("whynot/preference"), 1u);
  EXPECT_EQ(skeleton.count("whynot/keyword"), 1u);
  EXPECT_EQ(skeleton.count("whynot/refined_topk"), 1u);

  // One fan-out, two legs: the in-process sharded and the remote layouts
  // record the same top-k fan-out spans.
  const auto fanout_skeleton = Skeleton(local_trace, /*with_fanout=*/true);
  EXPECT_EQ(fanout_skeleton, Skeleton(remote_trace, /*with_fanout=*/true));
  EXPECT_GT(fanout_skeleton.count("topk/fanout"), 0u);
  EXPECT_EQ(fanout_skeleton.count("topk/fanout"),
            fanout_skeleton.count("topk/merge"));
  EXPECT_EQ(Skeleton(single_trace, /*with_fanout=*/true), skeleton);

  // The query trace carries the top-k stage in every layout.
  const JsonValue query_trace = FetchTrace(single, single_run.query_trace_id);
  EXPECT_EQ(Skeleton(query_trace).count("query/topk"), 1u);

  // Remote-only structure: rpc spans on the coordinator, shard-side child
  // spans stitched under them by the propagated trace id.
  std::set<std::string> coordinator_span_ids;
  size_t rpc_spans = 0;
  size_t shard_spans = 0;
  size_t stitched = 0;
  for (const JsonValue& span : remote_trace.Get("spans").array_items()) {
    if (span.Get("node").as_string() == "coordinator") {
      coordinator_span_ids.insert(span.Get("id").as_string());
      if (span.Get("name").as_string().rfind("rpc ", 0) == 0) ++rpc_spans;
    }
  }
  for (const JsonValue& span : remote_trace.Get("spans").array_items()) {
    if (span.Get("node").as_string().rfind("shard", 0) == 0) {
      ++shard_spans;
      if (coordinator_span_ids.count(span.Get("parent").as_string()) > 0) {
        ++stitched;
      }
    }
  }
  EXPECT_GT(rpc_spans, 0u);
  EXPECT_GT(shard_spans, 0u);
  // Shard-side root spans hang off coordinator rpc spans. Not every shard
  // span need stitch: past the coordinator's span cap, rpc spans are shed
  // while the header (and thus the shard-side span) still exists.
  EXPECT_GT(stitched, 0u);
  EXPECT_LE(stitched, shard_spans);

  // An unknown trace id is a clean 404.
  Fetch(remote.port(), "GET", "/trace/deadbeefdeadbeef", "", 404);

  single.Stop();
  local.Stop();
  remote.Stop();
}

TEST(ObservabilityTest, MetricsFamiliesOnCoordinatorAndShard) {
  const ObjectStore store = GenerateHotelDataset();
  const ShardedCorpus sharded =
      ShardedCorpus::Partition(store, GridShardRouter::Fit(store, 2));
  ShardFleet fleet(sharded);
  auto connected = RemoteCorpus::Connect(fleet.endpoints);
  ASSERT_TRUE(connected.ok());
  const RemoteCorpus remote_corpus = std::move(connected).value();
  YaskService service(remote_corpus);
  ASSERT_TRUE(service.Start().ok());
  Drive(service);

  // Coordinator: per-endpoint HTTP metrics, stage histograms, and the
  // remote corpus's replica/shard RPC families in ONE exposition.
  const std::string metrics = Fetch(service.port(), "GET", "/metrics");
  for (const char* needle : {
           "# TYPE yask_http_requests_total counter",
           "yask_http_requests_total{code=\"200\",endpoint=\"/query\"}",
           "yask_http_requests_total{code=\"200\",endpoint=\"/whynot\"}",
           "# TYPE yask_http_request_ms histogram",
           "# TYPE yask_stage_ms histogram",
           "yask_stage_ms_bucket{stage=\"whynot/keyword\",le=\"+Inf\"}",
           "yask_stage_ms_bucket{stage=\"query/topk\",le=\"+Inf\"}",
           "# TYPE yask_replica_rpc_latency_ms histogram",
           "# TYPE yask_replica_requests_total counter",
           "# TYPE yask_shard_rpc_latency_ms histogram",
           "# TYPE yask_failovers_total counter",
           "yask_failovers_total{shard=\"0\"} 0",
           "# TYPE yask_session_replays_total counter",
           "# TYPE yask_replicas_cooling gauge",
           "# TYPE yask_cached_queries gauge",
           "# TYPE yask_shard_rpc_ewma_ms gauge",
           "# TYPE yask_sweep_batch_events gauge",
       }) {
    EXPECT_NE(metrics.find(needle), std::string::npos) << needle;
  }
  // Each replica appears as a label on the RPC latency family.
  for (const std::string& endpoint : fleet.endpoints) {
    EXPECT_NE(metrics.find("replica=\"" + endpoint + "\""), std::string::npos)
        << endpoint;
  }

  // Shard server: per-endpoint RPC metrics and session gauges.
  const std::string shard_metrics =
      Fetch(fleet.services[0]->port(), "GET", "/metrics");
  for (const char* needle : {
           "# TYPE yask_shard_requests_total counter",
           "yask_shard_requests_total{code=\"200\",endpoint=\"/shard/topk\"}",
           "# TYPE yask_shard_request_ms histogram",
           "# TYPE yask_shard_open_plane_sessions gauge",
           "# TYPE yask_shard_open_probe_sessions gauge",
           "# TYPE yask_shard_sessions_evicted_total counter",
           "yask_shard_sessions_evicted_total{kind=\"plane\",shard=\"0\"} 0",
           "yask_shard_sessions_evicted_total{kind=\"probe\",shard=\"0\"} 0",
           "yask_shard_objects{shard=\"0\"}",
       }) {
    EXPECT_NE(shard_metrics.find(needle), std::string::npos) << needle;
  }

  // The adaptive fan-out gauges carry real samples once traffic has flowed:
  // the RPC EWMA is positive, and the sweep segment preference sits inside
  // its documented clamp [8, 256].
  const auto gauge_value = [&](const std::string& family) {
    const std::string needle = family + "{shard=\"0\"} ";
    const size_t at = metrics.find(needle);
    EXPECT_NE(at, std::string::npos) << family;
    if (at == std::string::npos) return 0.0;
    return std::strtod(metrics.c_str() + at + needle.size(), nullptr);
  };
  EXPECT_GT(gauge_value("yask_shard_rpc_ewma_ms"), 0.0);
  EXPECT_GE(gauge_value("yask_sweep_batch_events"), 8.0);
  EXPECT_LE(gauge_value("yask_sweep_batch_events"), 256.0);

  // /health still reports the same numbers the registry exports (single
  // source of truth): zero failovers and per-replica request counts > 0.
  const std::string health = Fetch(service.port(), "GET", "/health");
  auto parsed = JsonValue::Parse(health);
  ASSERT_TRUE(parsed.ok());
  const JsonValue& shards = parsed->Get("remote_shards");
  ASSERT_EQ(shards.size(), 2u);
  for (const JsonValue& row : shards.array_items()) {
    EXPECT_EQ(row.Get("failovers").as_number(), 0);
    for (const JsonValue& rep : row.Get("replicas").array_items()) {
      EXPECT_GT(rep.Get("requests").as_number(), 0);
    }
  }

  service.Stop();
}

TEST(ObservabilityTest, ZeroThresholdPinsEveryTrace) {
  const Corpus corpus = CorpusBuilder().Build(GenerateHotelDataset());
  YaskServiceOptions options;
  options.slow_trace_threshold_ms = 0.0;
  YaskService service(corpus, options);
  ASSERT_TRUE(service.Start().ok());
  const Driven run = Drive(service);

  const JsonValue trace = FetchTrace(service, run.whynot_trace_id);
  EXPECT_TRUE(trace.Get("pinned").as_bool());
  EXPECT_EQ(service.traces().pinned_count(), 2u);  // query + whynot

  // The shard-side trace endpoint answers 404 for ids it never saw — via a
  // standalone single-shard server, checking the GET /shard/trace surface.
  ShardService shard(corpus, ShardService::StandaloneInfo(corpus));
  ASSERT_TRUE(shard.Start().ok());
  Fetch(shard.port(), "GET",
        std::string(shardrpc::kTracePath) + "?id=" + run.whynot_trace_id, "",
        404);
  Fetch(shard.port(), "GET", shardrpc::kTracePath, "", 400);
  shard.Stop();
  service.Stop();
}

}  // namespace
}  // namespace yask
