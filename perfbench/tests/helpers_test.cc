// Tests of the benchmark's helpers: percentile selection, seeded request
// bodies, span self time, open-loop lateness, /metrics parsing, response
// normalisation and the keep-alive client. A plain
// executable (exit 0 = pass) so the benchmark package needs no test
// framework; perfbench/run.py --selftest builds and runs it.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/server/http_server.h"

namespace {

int failures = 0;

#define CHECK(cond)                                              \
  do {                                                           \
    if (!(cond)) {                                               \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                   __LINE__, #cond);                             \
      ++failures;                                                \
    }                                                            \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentileSelection() {
  using perfbench::HighestSupportedPercentile;
  // p99 of 1000 samples leaves exactly 10 beyond it; 999 leave 9.
  CHECK(HighestSupportedPercentile(1000) == 99.0);
  CHECK(HighestSupportedPercentile(999) == 90.0);
  CHECK(HighestSupportedPercentile(100) == 90.0);
  CHECK(HighestSupportedPercentile(99) == 50.0);
  CHECK(HighestSupportedPercentile(20) == 50.0);
  CHECK(HighestSupportedPercentile(19) == 0.0);
  CHECK(HighestSupportedPercentile(10000) == 99.9);
  CHECK(HighestSupportedPercentile(0) == 0.0);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(perfbench::Percentile(v, 50) == 50.0);
  CHECK(perfbench::Percentile(v, 99) == 99.0);
  CHECK(perfbench::Percentile(v, 100) == 100.0);
  CHECK(perfbench::Percentile({}, 50) == 0.0);

  // Three windows of 100; the middle one holds a stall. Windowed p99 is the
  // median of the windows' p99s, so the stall does not set it.
  std::vector<int64_t> when;
  std::vector<double> lat;
  for (int i = 0; i < 300; ++i) {
    when.push_back(299 - i);  // Reverse order: windows follow the key.
    lat.push_back(i >= 100 && i < 200 ? 1000.0 : 1.0 + (i % 100) / 100.0);
  }
  CHECK(Near(perfbench::WindowedPercentile(when, lat, 99, 100, 9), 1.98));
  CHECK(Near(perfbench::WindowedPercentile(when, lat, 99, 300, 9),
             perfbench::Percentile(lat, 99)));

  // Sessions every 100 ms, but the fifth one took 2 s: of the three full
  // windows of 3 the second holds it, and the median window rate is 10/s.
  std::vector<double> done;
  for (int i = 1; i <= 10; ++i) done.push_back(i * 100.0 + (i >= 5 ? 1900.0 : 0.0));
  const std::vector<double> rates = perfbench::WindowRates(done, 3);
  CHECK(rates.size() == 3);
  CHECK(Near(perfbench::Percentile(rates, 50), 10.0));
  CHECK(rates[1] < 2.0);
  // No full window: the whole pass is one.
  CHECK(perfbench::WindowRates({500.0, 1000.0}, 3) ==
        std::vector<double>{2.0});
}

void TestSeededBodies(const yask::ObjectStore& store) {
  auto cold = [&](uint64_t seed) {
    std::string all;
    yask::Rng rng = perfbench::StreamRng(seed, 0);
    for (int i = 0; i < 50; ++i) {
      all += perfbench::NextColdQueryBody(store, &rng) + "\n";
    }
    return all;
  };
  CHECK(cold(7) == cold(7));
  CHECK(cold(7) != cold(8));

  auto hot = [&](uint64_t seed) {
    yask::bench::ProductionWorkloadSpec spec;
    spec.seed = seed;
    const yask::bench::ProductionWorkload workload(store, spec);
    std::string all;
    for (size_t i = 0; i < workload.distinct(); ++i) {
      const yask::Query& q = workload.shape(i);
      all += perfbench::QueryBody(q, store.vocab());
    }
    yask::Rng rng = perfbench::StreamRng(seed, 0);
    for (int i = 0; i < 50; ++i) all += std::to_string(workload.Draw(&rng));
    return all;
  };
  CHECK(hot(7) == hot(7));
  CHECK(hot(7) != hot(8));

  auto questions = [&](uint64_t seed) {
    std::string all;
    for (const perfbench::Question& q :
         perfbench::MakeQuestions(store, seed, 0, 9)) {
      all += q.query_body + q.missing_json + perfbench::kModels[q.model];
      // |M| cycles 1, 2, 3 every three questions; ranks lie in k+1..4k.
      CHECK(q.missing.size() >= 1 && q.missing.size() <= 3);
    }
    return all;
  };
  CHECK(questions(7) == questions(7));
  CHECK(questions(7) != questions(8));
}

void TestSelfTime() {
  perfbench::SpanRecorder rec;
  const int64_t ms = 1000000;
  const uint64_t root = rec.Add("req", 0, 1, 0, 100 * ms);
  const uint64_t a = rec.Add("http.query", root, 1, 10 * ms, 30 * ms);
  rec.Add("corpus.topk", root, 1, 20 * ms, 50 * ms);  // Overlaps a.
  rec.Add("query.topk_local", root, 1, 90 * ms, 120 * ms);  // Clipped.
  rec.Add("grandchild", a, 1, 12 * ms, 18 * ms);  // Not root's child.
  const uint64_t other = rec.Add("req", 0, 2, 0, 10 * ms);
  // Root: 100 - |[10,50] u [90,100]| = 100 - 50.
  CHECK(Near(perfbench::SelfTimeMs(rec.spans(), root), 50.0));
  CHECK(Near(perfbench::SelfTimeMs(rec.spans(), a), 14.0));
  CHECK(Near(perfbench::SelfTimeMs(rec.spans(), other), 10.0));
  CHECK(Near(rec.spans()[root - 1].millis(), 100.0));
}

void TestLateness() {
  const int64_t ms = 1000000;
  const std::vector<int64_t> intended = {0, 10 * ms, 20 * ms, 30 * ms};
  const std::vector<int64_t> actual = {1 * ms, 15 * ms, 19 * ms, 30 * ms};
  const std::vector<double> late = perfbench::LatenessMs(intended, actual);
  CHECK(late.size() == 4);
  CHECK(Near(late[0], 1.0));
  CHECK(Near(late[1], 5.0));
  CHECK(Near(late[2], 0.0));  // Early sends count as on time.
  CHECK(Near(late[3], 0.0));
}

void TestFamilySum() {
  const std::string exposition =
      "# TYPE yask_replica_requests_total counter\n"
      "yask_replica_requests_total{replica=\"a\"} 10\n"
      "yask_replica_requests_total{replica=\"b\"} 5\n"
      "yask_replica_requests_total_other 100\n"
      "yask_result_cache_hits_total 7\n"
      "yask_replica_rpc_latency_ms_sum{replica=\"a\"} 2.5\n";
  CHECK(Near(perfbench::FamilySum(exposition, "yask_replica_requests_total"),
             15.0));
  CHECK(Near(perfbench::FamilySum(exposition, "yask_result_cache_hits_total"),
             7.0));
  CHECK(Near(perfbench::FamilySum(exposition,
                                  "yask_replica_rpc_latency_ms_sum"),
             2.5));
  CHECK(Near(perfbench::FamilySum(exposition, "absent"), 0.0));
}

void TestNormalize() {
  std::string a, b;
  CHECK(perfbench::Normalize(
      "{\"query_id\":3,\"results\":[{\"id\":1}],\"response_millis\":1.5}",
      &a));
  CHECK(perfbench::Normalize(
      "{\"query_id\":9,\"results\":[{\"id\":1}],\"response_millis\":0.2}",
      &b));
  CHECK(a == b);
  CHECK(!perfbench::Normalize("not json", &a));
}

// A server that reaps idle keep-alive connections after 100 ms: a client left
// idle past that (and past kRedialIdle) must still get its next answer.
void TestKeepAliveClientOutlivesIdleReaping() {
  yask::HttpServer server(0, 1, /*keep_alive_idle_ms=*/100);
  server.Route("POST", "/echo", [](const yask::HttpRequest& req) {
    return yask::HttpResponse::Json(req.body);
  });
  CHECK(server.Start().ok());
  perfbench::KeepAliveClient client;
  for (const auto idle : {std::chrono::milliseconds(0),
                          std::chrono::milliseconds(400),
                          perfbench::KeepAliveClient::kRedialIdle +
                              std::chrono::milliseconds(200)}) {
    std::this_thread::sleep_for(idle);
    int status = 0;
    auto got = client.Call(server.bound_port(), "POST", "/echo", "{}", 2000,
                           &status);
    CHECK(got.ok() && status == 200 && *got == "{}");
  }
  CHECK(server.idle_reaped() >= 1);
  server.Stop();
}

}  // namespace

int main() {
  const yask::ObjectStore store =
      yask::GenerateDataset(yask::bench::SharedDatasetSpec(3000));
  TestPercentileSelection();
  TestSeededBodies(store);
  TestSelfTime();
  TestLateness();
  TestFamilySum();
  TestNormalize();
  TestKeepAliveClientOutlivesIdleReaping();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench helper tests passed\n");
  return 0;
}
