// Helpers of the serving benchmark that carry its statistics and its request
// generation: percentile selection, seeded request bodies and why-not
// questions, the in-memory span tree with self times, open-loop lateness,
// /metrics parsing, the keep-alive client and the response normalisation the
// exactness gate compares. Header-only, so the helper tests link nothing
// but this file and the yask library.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/query/topk_engine.h"
#include "src/server/http_client.h"
#include "src/server/json.h"
#include "src/storage/dataset_generator.h"
#include "src/storage/object_store.h"

namespace perfbench {

// --- Percentiles -------------------------------------------------------------

/// The 1-based nearest rank of the p-th percentile in a sample of n >= 1
/// (the small epsilon keeps 99.9% of 10000 at rank 9990, not 9991).
inline size_t NearestRank(size_t n, double p) {
  const double rank =
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1,
                            std::max<size_t>(n, 1));
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample: the
/// smallest value with at least p% of the sample at or below it. 0 for an
/// empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), p) - 1];
}

/// How many samples of `n` lie strictly beyond the nearest-rank p-th
/// percentile.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

/// The p-th percentile within each of up to `max_windows` consecutive
/// windows (ordered by `order_key`, equal counts, at least `min_per_window`
/// samples each), then the median of those per-window values. With fewer
/// than 2 * min_per_window samples it is the plain percentile.
inline double WindowedPercentile(const std::vector<int64_t>& order_key,
                                 const std::vector<double>& values, double p,
                                 size_t min_per_window, size_t max_windows) {
  const size_t n = std::min(order_key.size(), values.size());
  const size_t windows = std::clamp<size_t>(
      n / std::max<size_t>(min_per_window, 1), 1, std::max<size_t>(max_windows, 1));
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return order_key[a] < order_key[b];
  });
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> chunk;
    for (size_t i = w * n / windows; i < (w + 1) * n / windows; ++i) {
      chunk.push_back(values[order[i]]);
    }
    per_window.push_back(Percentile(std::move(chunk), p));
  }
  return Percentile(std::move(per_window), 50.0);
}

/// The rates (completions per second) of consecutive windows of `window`
/// completions in one closed-loop pass. `done_ms` holds the completion times
/// (ms since the pass started) in ascending order; a window runs from the
/// previous window's last completion (or the pass start) to its own last
/// one. A trailing partial window is dropped, unless there is no full one:
/// then the whole pass is the single window.
inline std::vector<double> WindowRates(const std::vector<double>& done_ms,
                                       size_t window) {
  std::vector<double> rates;
  window = std::max<size_t>(window, 1);
  double start = 0.0;
  for (size_t end = window; end <= done_ms.size(); end += window) {
    const double span_ms = done_ms[end - 1] - start;
    if (span_ms > 0.0) rates.push_back(1000.0 * static_cast<double>(window) / span_ms);
    start = done_ms[end - 1];
  }
  if (rates.empty() && !done_ms.empty() && done_ms.back() > 0.0) {
    rates.push_back(1000.0 * static_cast<double>(done_ms.size()) /
                    done_ms.back());
  }
  return rates;
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 that still has at
/// least ten samples beyond it; 0 when not even the median has.
inline double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    if (SamplesBeyond(n, p) >= 10) best = p;
  }
  return best;
}

// --- Seeded request bodies ---------------------------------------------------

/// The /query body the benchmark sends for `q`: its location, keywords and
/// k, keys in the fixed order JsonValue dumps them.
inline std::string QueryBody(const yask::Query& q,
                             const yask::Vocabulary& vocab) {
  yask::JsonValue body = yask::JsonValue::MakeObject();
  body.Set("x", yask::JsonValue(q.loc.x));
  body.Set("y", yask::JsonValue(q.loc.y));
  body.Set("keywords", yask::JsonValue(q.doc.ToString(vocab)));
  body.Set("k", yask::JsonValue(static_cast<size_t>(q.k)));
  return body.Dump();
}

/// Stream `stream` of seed `seed`: one independent generator per (seed,
/// stream) pair, so each client thread replays its own bodies no matter how
/// the others are scheduled.
inline yask::Rng StreamRng(uint64_t seed, uint64_t stream) {
  return yask::Rng(seed * 0x9E3779B97F4A7C15ULL + stream * 7919 + 1);
}

/// The next cold query of a stream: a location near the data, 1-3 keywords
/// biased to popular corpus terms, k = 10. Locations are continuous draws,
/// so two queries of one run are distinct result-cache keys.
inline yask::Query NextColdQuery(const yask::ObjectStore& store,
                                 yask::Rng* rng) {
  yask::Query q;
  q.loc = yask::SampleQueryLocation(store, rng);
  q.doc = yask::SampleQueryKeywords(
      store, static_cast<size_t>(rng->NextInt(1, 3)), rng);
  q.k = 10;
  q.w = yask::Weights::FromWs(0.5);
  return q;
}

inline std::string NextColdQueryBody(const yask::ObjectStore& store,
                                     yask::Rng* rng) {
  return QueryBody(NextColdQuery(store, rng), store.vocab());
}

// --- Spans -------------------------------------------------------------------

/// One benchmark-side span: a timed call into one layer. Spans of one request
/// share `request`; `parent` is the id of the enclosing span (0 = root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Spans kept in memory for the whole traced pass and written out once at
/// the end. Not thread-safe: the traced pass replays its sample serially.
class SpanRecorder {
 public:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span and returns its id.
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t request) {
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  /// Closes span `id` and returns its duration in milliseconds.
  double End(uint64_t id) {
    Span& s = spans_[id - 1];
    s.end_ns = NowNs();
    return s.millis();
  }
  /// Times `fn` as a child span of `parent`; returns the duration (ms).
  template <typename Fn>
  double Time(const std::string& name, uint64_t parent, uint64_t request,
              Fn&& fn) {
    const uint64_t id = Begin(name, parent, request);
    fn();
    return End(id);
  }

  /// Records a finished span (used by tests to build synthetic trees).
  uint64_t Add(const std::string& name, uint64_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns) {
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of span `id` (ms): its duration minus the part of it that the
/// union of its direct children covers (children clipped to the parent, and
/// overlapping children counted once).
inline double SelfTimeMs(const std::vector<Span>& spans, uint64_t id) {
  const Span& parent = spans[id - 1];
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& s : spans) {
    if (s.parent != id) continue;
    const int64_t lo = std::max(s.start_ns, parent.start_ns);
    const int64_t hi = std::min(s.end_ns, parent.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : covered) {
    if (!open || lo > cur_hi) {
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) union_ns += cur_hi - cur_lo;
  return static_cast<double>(parent.end_ns - parent.start_ns - union_ns) / 1e6;
}

/// The spans as JSON lines, one object per span.
inline std::string SpansToJsonLines(const std::vector<Span>& spans) {
  std::string out;
  for (const Span& s : spans) {
    yask::JsonValue v = yask::JsonValue::MakeObject();
    v.Set("id", yask::JsonValue(static_cast<size_t>(s.id)));
    v.Set("parent", yask::JsonValue(static_cast<size_t>(s.parent)));
    v.Set("request", yask::JsonValue(static_cast<size_t>(s.request)));
    v.Set("name", yask::JsonValue(s.name));
    v.Set("start_ns", yask::JsonValue(static_cast<double>(s.start_ns)));
    v.Set("end_ns", yask::JsonValue(static_cast<double>(s.end_ns)));
    out += v.Dump();
    out += '\n';
  }
  return out;
}

// --- Open-loop lateness ------------------------------------------------------

/// How late (ms) each open-loop send left its generator: actual send time
/// minus the intended one, floored at 0 (a send is never early). Both
/// vectors hold steady-clock nanoseconds, index-aligned.
inline std::vector<double> LatenessMs(const std::vector<int64_t>& intended_ns,
                                      const std::vector<int64_t>& actual_ns) {
  std::vector<double> late;
  const size_t n = std::min(intended_ns.size(), actual_ns.size());
  late.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    late.push_back(
        static_cast<double>(std::max<int64_t>(actual_ns[i] - intended_ns[i],
                                              0)) /
        1e6);
  }
  return late;
}

// --- Metrics scraping --------------------------------------------------------

/// Sum of every series of `family` (any labels) in a Prometheus exposition.
inline double FamilySum(const std::string& exposition, const std::string& family) {
  double total = 0.0;
  std::istringstream lines(exposition);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind(family, 0) != 0) continue;
    const char next = line.size() > family.size() ? line[family.size()] : '\0';
    if (next != ' ' && next != '{') continue;
    total += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return total;
}

// --- Keep-alive client -------------------------------------------------------

/// A keep-alive connection to a server on this host. The server reaps a
/// connection that sat idle for its keep_alive_idle_ms (5 s by default), and
/// a traced why-not question can spend longer than that in direct engine
/// calls between two requests. So a connection idle for kRedialIdle, or one
/// its peer has closed, is redialled before the next request instead of
/// failing it.
class KeepAliveClient {
 public:
  static constexpr std::chrono::milliseconds kRedialIdle{1000};

  yask::Result<std::string> Call(uint16_t port, const std::string& method,
                                 const std::string& path,
                                 const std::string& body, int deadline_ms,
                                 int* status) {
    if (std::chrono::steady_clock::now() - last_used_ > kRedialIdle) {
      conn_.Close();
    }
    if (!conn_.LooksAlive()) {
      yask::Status dialled = conn_.Connect("127.0.0.1", port, 2000);
      if (!dialled.ok()) return dialled;
    }
    auto got = conn_.Call(method, path, body, deadline_ms, status);
    last_used_ = std::chrono::steady_clock::now();
    if (!got.ok()) conn_.Close();
    return got;
  }

 private:
  yask::HttpClientConnection conn_;
  std::chrono::steady_clock::time_point last_used_{};
};

// --- Why-not questions -------------------------------------------------------

/// The /whynot models the mix rotates through, in question order.
inline const char* const kModels[3] = {"keyword", "preference", "both"};

struct Question {
  yask::Query query;
  std::vector<yask::ObjectId> missing;
  int model = 0;  // Index into kModels.
  std::string query_body;
  std::string missing_json;
};

/// Question i of a seeded set: model i mod 3, |M| = 1 + (i / 3) mod 3, so
/// every model sees every |M| equally often; M drawn without repeats from
/// ranks k+1..4k of the single-store ranking.
inline std::vector<Question> MakeQuestions(const yask::ObjectStore& store,
                                           uint64_t seed, uint64_t stream,
                                           size_t count) {
  yask::Rng rng = StreamRng(seed, stream);
  std::vector<Question> out;
  while (out.size() < count) {
    const size_t i = out.size();
    Question q;
    q.query = yask::bench::MakeQuery(store, &rng, /*num_keywords=*/3,
                                     /*k=*/10);
    q.model = static_cast<int>(i % 3);
    yask::Query wide = q.query;
    wide.k = 4 * q.query.k;
    const yask::TopKResult ranked = yask::TopKScan(store, wide);
    if (ranked.size() < wide.k) continue;
    const size_t m = 1 + (i / 3) % 3;
    std::vector<size_t> ranks;
    while (ranks.size() < m) {
      const size_t r = static_cast<size_t>(rng.NextInt(
          static_cast<int64_t>(q.query.k) + 1, static_cast<int64_t>(wide.k)));
      if (std::find(ranks.begin(), ranks.end(), r) == ranks.end()) {
        ranks.push_back(r);
      }
    }
    std::sort(ranks.begin(), ranks.end());
    q.missing_json = "[";
    for (const size_t r : ranks) {
      q.missing.push_back(ranked[r - 1].id);
      if (q.missing_json.size() > 1) q.missing_json += ",";
      q.missing_json += std::to_string(ranked[r - 1].id);
    }
    q.missing_json += "]";
    q.query_body = QueryBody(q.query, store.vocab());
    out.push_back(std::move(q));
  }
  return out;
}

// --- Response normalisation --------------------------------------------------

/// Drops the timing field and the per-request query_id at every depth: what
/// is left must be byte-identical across deployments.
inline yask::JsonValue StripVolatile(const yask::JsonValue& v) {
  if (v.is_object()) {
    yask::JsonValue out = yask::JsonValue::MakeObject();
    for (const auto& [key, value] : v.object_items()) {
      if (key == "response_millis" || key == "query_id") continue;
      out.Set(key, StripVolatile(value));
    }
    return out;
  }
  if (v.is_array()) {
    yask::JsonValue out = yask::JsonValue::MakeArray();
    for (const yask::JsonValue& item : v.array_items()) {
      out.Append(StripVolatile(item));
    }
    return out;
  }
  return v;
}

/// The normalised form of a response payload; false when it is not JSON.
inline bool Normalize(const std::string& payload, std::string* out) {
  auto parsed = yask::JsonValue::Parse(payload);
  if (!parsed.ok()) return false;
  *out = StripVolatile(parsed.value()).Dump();
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
