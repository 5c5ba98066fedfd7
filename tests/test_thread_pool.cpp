// Worker-pool and concurrent-deadline regression tests. The pool's single
// correctness obligation is ordered, exception-transparent fan-out (the
// synthesis engine's determinism rests on it); the process pools add that
// a pool outliving every run leaves nothing of a task behind once its
// result is back. The Deadline's obligation is that many threads may poll
// one object without tearing the fault-injection count.
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "commlib/standard_libraries.hpp"
#include "support/deadline.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"
#include "synth/synthesizer.hpp"
#include "workloads/wan2002.hpp"

namespace cdcs::support {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f1 = pool.submit([] { return 41 + 1; });
  auto f2 = pool.submit([] { return std::string("done"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "done");
}

TEST(ThreadPool, ZeroWorkersClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, DrainsQueueBeforeJoining) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor must wait for all 100, not just in-flight ones
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ParallelMapOrderedPreservesIndexOrder) {
  ThreadPool pool(4);
  const std::size_t n = 200;
  const auto out = parallel_map_ordered(&pool, n, [](std::size_t i) {
    if (i % 7 == 0) std::this_thread::yield();  // jitter completion order
    return i * i;
  });
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ParallelMapOrderedInlineWithoutPool) {
  // Null pool and single-worker pool both take the inline path and must
  // agree with the pooled result -- this is the determinism contract.
  auto square = [](std::size_t i) { return i * 3 + 1; };
  const auto inline_out = parallel_map_ordered(nullptr, 50, square);
  ThreadPool one(1);
  const auto single_out = parallel_map_ordered(&one, 50, square);
  ThreadPool many(4);
  const auto pooled_out = parallel_map_ordered(&many, 50, square);
  EXPECT_EQ(inline_out, single_out);
  EXPECT_EQ(inline_out, pooled_out);
}

TEST(ThreadPool, ParallelMapOrderedPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_map_ordered(&pool, 10,
                                    [](std::size_t i) -> int {
                                      if (i == 3) {
                                        throw std::runtime_error("boom");
                                      }
                                      return static_cast<int>(i);
                                    }),
               std::runtime_error);
}

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_GE(resolve_thread_count(0), 1u);   // all hardware, at least one
  EXPECT_GE(resolve_thread_count(-5), 1u);
}

// --- The process pools ----------------------------------------------------

std::uint64_t pools_created() {
  return MetricsRegistry::global().counter("thread_pool.created").value();
}

TEST(ThreadPool, SharedIsOnePoolPerWidth) {
  ThreadPool& three = ThreadPool::shared(3);
  EXPECT_EQ(three.size(), 3u);
  const std::uint64_t created = pools_created();
  EXPECT_EQ(&ThreadPool::shared(3), &three);
  EXPECT_EQ(fan_out_pool(3, nullptr), &three);
  EXPECT_EQ(pools_created(), created);

  ThreadPool mounted(2);
  EXPECT_EQ(fan_out_pool(3, &mounted), &mounted);
  EXPECT_EQ(fan_out_pool(1, &mounted), nullptr);  // one worker runs inline
}

TEST(ThreadPool, SingleThreadSynthesisCreatesNoPool) {
  const model::ConstraintGraph cg = workloads::wan2002();
  const commlib::Library lib = commlib::wan_library();
  synth::SynthesisOptions serial;
  serial.threads = 1;
  serial.solver.threads = 1;
  synth::SynthesisOptions rounds = serial;
  rounds.solver.backend = "parallel_bnb";
  synth::SynthesisOptions partitioned = serial;
  partitioned.partitioning.enabled = true;
  partitioned.partitioning.arc_threshold = 1;
  partitioned.partitioning.max_cluster_arcs = 3;

  const std::uint64_t created = pools_created();
  for (const synth::SynthesisOptions& options : {serial, rounds, partitioned}) {
    ASSERT_TRUE(synth::synthesize(cg, lib, options).ok());
  }
  EXPECT_EQ(pools_created(), created);
}

TEST(ThreadPool, SharedPoolOutlivesEachTraceSession) {
  // The caller may destroy its trace sink the moment the map returns, while
  // the process pool's workers live on: every task's span must be closed
  // by then. ASan flags a worker that writes into a dead sink.
  constexpr std::size_t kItems = 16;
  ThreadPool& pool = ThreadPool::shared(4);
  for (int round = 0; round < 100; ++round) {
    std::vector<TraceEvent> events;
    {
      ScopedTraceSession session;
      parallel_map_ordered(&pool, kItems, [](std::size_t i) { return i; });
      events = session.sink().snapshot();
    }
    std::size_t begins = 0;
    std::size_t ends = 0;
    for (const TraceEvent& e : events) {
      if (std::string_view(e.name) != "task") continue;
      ++(e.phase == TraceEvent::Phase::kBegin ? begins : ends);
      EXPECT_EQ(e.scope, "");  // the pool's own span stays unscoped
    }
    EXPECT_EQ(begins, kItems) << "round " << round;
    EXPECT_EQ(ends, kItems) << "round " << round;
  }
}

TEST(ThreadPool, TaskHistogramIsCompleteWhenTheMapReturns) {
  Histogram& task_us =
      MetricsRegistry::global().histogram("thread_pool.task.us");
  constexpr std::size_t kItems = 32;
  set_timing_enabled(true);
  for (int round = 0; round < 100; ++round) {
    const std::uint64_t before = task_us.snapshot().count;
    parallel_map_ordered(&ThreadPool::shared(4), kItems,
                         [](std::size_t i) { return i; });
    EXPECT_EQ(task_us.snapshot().count, before + kItems) << "round " << round;
  }
  set_timing_enabled(false);
}

// --- Deadline under concurrency -----------------------------------------

TEST(DeadlineConcurrency, PollsNeverTearTheCheckCount) {
  // N threads hammer expired() on a shared check-counted deadline. The
  // fetch_sub ticket scheme hands each poll a distinct ticket, so the
  // observable invariant is: at most `budget` polls return false, and once
  // any poll returns true the latch holds for everyone.
  constexpr long kBudget = 10000;
  Deadline d = Deadline::expire_after_checks(kBudget);
  constexpr int kThreads = 8;
  std::atomic<long> alive_polls{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&d, &alive_polls] {
      for (int i = 0; i < 2000; ++i) {
        if (!d.expired()) alive_polls.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  // 16000 total polls against a budget of 10000: the deadline must have
  // tripped, and no poll after the budget may have reported alive.
  EXPECT_TRUE(d.latched());
  EXPECT_LE(alive_polls.load(), kBudget);
  EXPECT_TRUE(d.expired());  // latch holds
}

TEST(DeadlineConcurrency, LatchedIsPollFree) {
  Deadline d = Deadline::expire_after_checks(2);
  EXPECT_FALSE(d.latched());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(d.latched());  // consumes nothing
  EXPECT_FALSE(d.expired());  // poll 1
  EXPECT_FALSE(d.expired());  // poll 2
  EXPECT_FALSE(d.latched());
  EXPECT_TRUE(d.expired());   // poll 3 trips
  EXPECT_TRUE(d.latched());
}

}  // namespace
}  // namespace cdcs::support
