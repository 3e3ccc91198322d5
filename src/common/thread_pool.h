// Copyright (c) 2026 The YASK reproduction authors.
// A small fixed-size worker pool for query fan-out.
//
// The sharded top-k engine dispatches one best-first search per shard for
// every query; spawning threads per query would cost more than the searches
// themselves, so the pool keeps its workers alive for the lifetime of the
// engine. Submit() is thread-safe — the HTTP workers of YaskService call
// into the same pool concurrently. FanOut() is the one scatter/join every
// shard fan-out in the tree goes through.

#ifndef YASK_COMMON_THREAD_POOL_H_
#define YASK_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace yask {

/// Fixed-size worker pool. Tasks run in submission order across the workers;
/// the destructor drains every queued task before joining (so submitted work
/// never silently disappears — callers waiting on a latch always wake).
class ThreadPool {
 public:
  /// `num_threads` is clamped to at least 1.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe. Must not be called after destruction has
  /// begun (the engine owns both the pool and every submitter).
  void Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(0) .. fn(n - 1) and returns when all have finished: on `pool`
/// when it is non-null and n > 1, inline on the calling thread otherwise.
/// Tasks inherit the caller's trace context, so the spans they record hang
/// under whatever span is open at the call site. Tasks must be leaves (never
/// wait on the same pool themselves), so a blocked caller cannot deadlock it.
void FanOut(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn);

}  // namespace yask

#endif  // YASK_COMMON_THREAD_POOL_H_
