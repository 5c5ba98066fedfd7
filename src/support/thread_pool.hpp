// Fixed-size worker pool for the synthesis engine's embarrassingly parallel
// stages (per-subset candidate pricing, partitioned cluster fan-out, the
// parallel_bnb rounds), plus the process pools those stages share.
//
// Design constraints, in order:
//   1. DETERMINISM. Parallel users of the pool must produce bit-identical
//      results to a serial run. The pool therefore never reorders *results*:
//      parallel_map_ordered() evaluates f(0..n-1) concurrently but hands the
//      results back in index order, so any fold over them is the same fold
//      the serial loop performs.
//   2. Cooperative cancellation. Tasks receive no kill signal; they are
//      expected to poll a support::Deadline (whose atomic latch is safe to
//      share across workers) and return early. The pool only guarantees that
//      every submitted task runs to completion before the destructor joins.
//   3. No dependency surface. Plain std::thread + mutex/condvar; no atomics
//      tricks beyond a stop flag, no lock-free queue -- the tasks this pool
//      carries are millisecond-scale placement solves, so queue overhead is
//      noise.
//
// Lifetime. The library never constructs a pool per call: a stage that
// fans out asks fan_out_pool() for the caller's mounted pool or else the
// process pool of its width (ThreadPool::shared), which is created on first
// use and never destroyed, like MetricsRegistry::global(). Pool tasks must
// not fan out onto the pool they run on: a worker blocked on its own queue
// can deadlock it, so the partitioned driver runs each cluster serially.
//
// Observability (docs/observability.md): the constructor counts into
// thread_pool.created, submit() samples the queue depth into the
// thread_pool.queue_depth gauge, and each executed task gets a "task" span
// plus a thread_pool.task.us latency histogram sample -- the per-task ones
// gated on tracing_enabled()/timing_enabled(), so an uninstrumented run
// reads no clock and takes no extra locks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/metrics.hpp"
#include "support/obs_context.hpp"
#include "support/trace.hpp"

namespace cdcs::support {

class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1). The pool is fixed-size for its
  /// whole lifetime; sizing policy (hardware_concurrency, --threads) is the
  /// caller's job via resolve_thread_count().
  explicit ThreadPool(std::size_t workers)
      : queue_depth_(
            MetricsRegistry::global().gauge("thread_pool.queue_depth")),
        task_us_(MetricsRegistry::global().histogram("thread_pool.task.us")) {
    if (workers == 0) workers = 1;
    MetricsRegistry::global().counter("thread_pool.created").add(1);
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// The process pool of `workers` threads (0 counts as 1), created on
  /// first use and never destroyed, so repeated runs pay no spawn or join.
  /// Every call with the same width returns the same pool.
  static ThreadPool& shared(std::size_t workers) {
    struct Pools {
      std::mutex mu;
      std::map<std::size_t, std::unique_ptr<ThreadPool>> by_width;
    };
    static Pools* pools = new Pools();  // never dtor'd
    if (workers == 0) workers = 1;
    std::lock_guard<std::mutex> lock(pools->mu);
    std::unique_ptr<ThreadPool>& pool = pools->by_width[workers];
    if (pool == nullptr) pool = std::make_unique<ThreadPool>(workers);
    return *pool;
  }

  std::size_t size() const { return threads_.size(); }

  /// Enqueues a task; the future carries its result (or exception).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    // The task's "task" span and the submitter's observability scope both
    // close INSIDE the packaged task, i.e. before its future is ready: a
    // caller returning from get() may tear its trace sink down at once, and
    // finds the thread_pool.task.us sample already booked. The span opens
    // before the scope is installed, so it stays unscoped; the scope keeps
    // the task's own spans/counters attributed to the scope that fanned the
    // work out. A null handle install/restore is two shared_ptr moves --
    // scheduling and results are unchanged.
    auto task = std::make_shared<std::packaged_task<R()>>(
        [f = std::forward<F>(f), scope = current_obs_scope(),
         task_us = &task_us_]() mutable -> R {
          ScopedTimer span("task", "thread_pool", task_us);
          ObsScopeGuard scope_guard(std::move(scope));
          return f();
        });
    std::future<R> result = task->get_future();
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace([task] { (*task)(); });
      depth = queue_.size();
    }
    // High-water mark of pending (not yet dequeued) tasks. One relaxed
    // atomic; never observed by the tasks themselves.
    queue_depth_.set_max(static_cast<double>(depth));
    cv_.notify_one();
    return result;
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ and drained
        job = std::move(queue_.front());
        queue_.pop();
      }
      job();
    }
  }

  Gauge& queue_depth_;    ///< registry-owned; see class comment
  Histogram& task_us_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_{false};
  std::vector<std::thread> threads_;
};

/// Resolves a user-facing thread-count knob: n >= 1 is taken literally,
/// n <= 0 means "all hardware threads" (never less than 1).
inline std::size_t resolve_thread_count(int n) {
  if (n > 0) return static_cast<std::size_t>(n);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// The pool a stage asked to run on `threads` workers fans out on: null
/// (run inline) when that resolves to one worker, else the caller's
/// `mounted` pool, else the process pool of that width.
inline ThreadPool* fan_out_pool(int threads, ThreadPool* mounted) {
  const std::size_t workers = resolve_thread_count(threads);
  if (workers <= 1) return nullptr;
  return mounted != nullptr ? mounted : &ThreadPool::shared(workers);
}

/// Deterministic ordered map: computes f(i) for i in [0, n) and returns the
/// results IN INDEX ORDER. With a null/single-thread pool the calls happen
/// inline (zero overhead, and exactly the serial loop); otherwise each call
/// is a pool task and the caller blocks on the futures in order, so the
/// reduction order downstream is identical either way. Exceptions from f
/// propagate to the caller (rethrown from the first failing index).
template <typename F>
auto parallel_map_ordered(ThreadPool* pool, std::size_t n, F&& f)
    -> std::vector<std::invoke_result_t<F, std::size_t>> {
  using R = std::invoke_result_t<F, std::size_t>;
  std::vector<R> out;
  out.reserve(n);
  if (pool == nullptr || pool->size() <= 1) {
    for (std::size_t i = 0; i < n; ++i) out.push_back(f(i));
    return out;
  }
  std::vector<std::future<R>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool->submit([&f, i] { return f(i); }));
  }
  for (std::future<R>& fut : futures) out.push_back(fut.get());
  return out;
}

}  // namespace cdcs::support
