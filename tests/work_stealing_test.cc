// Unit tests for runtime/work_stealing_pool.h and common/bounded_queue.h:
// completeness (every index exactly once), no deadlock on degenerate
// workloads, pool reuse, Run from inside Submit tasks and from several
// threads at once, scheduling-independent results, BatchRunner
// equivalence between static and work-stealing dispatch, and queue
// FIFO/backpressure/close semantics.

#include "runtime/work_stealing_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "runtime/batch_runner.h"
#include "synth/workload.h"

namespace frt {
namespace {

TEST(WorkStealingPoolTest, ExecutesEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    WorkStealingPool pool(threads);
    const size_t n = 500;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.Run(n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", threads " << threads;
    }
  }
}

TEST(WorkStealingPoolTest, EmptyWorkloadDoesNotDeadlock) {
  WorkStealingPool pool(4);
  pool.Run(0, [](size_t) { FAIL() << "no task should run"; });
}

TEST(WorkStealingPoolTest, SingleItemWorkloadDoesNotDeadlock) {
  WorkStealingPool pool(8);
  std::atomic<int> hits{0};
  pool.Run(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 1);
}

TEST(WorkStealingPoolTest, FewerTasksThanWorkers) {
  WorkStealingPool pool(8);
  std::atomic<int> hits{0};
  pool.Run(3, [&](size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 3);
}

TEST(WorkStealingPoolTest, PoolIsReusableAcrossRuns) {
  WorkStealingPool pool(4);
  for (int round = 0; round < 50; ++round) {
    const size_t n = 1 + static_cast<size_t>(round % 7);
    std::atomic<size_t> sum{0};
    pool.Run(n, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(WorkStealingPoolTest, MergedOutputIdenticalUnderAnyThreadCount) {
  // Per-index result slots: the merged output vector must be a pure
  // function of the task definitions, never of the worker count.
  const size_t n = 257;
  auto run = [&](unsigned threads) {
    WorkStealingPool pool(threads);
    std::vector<uint64_t> slots(n, 0);
    pool.Run(n, [&](size_t i) { slots[i] = i * i + 17; });
    return slots;
  };
  const std::vector<uint64_t> base = run(1);
  for (const unsigned threads : {2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    EXPECT_EQ(base, run(threads)) << "threads " << threads;
  }
}

TEST(WorkStealingPoolTest, SkewedTasksAreRebalanced) {
  // One task blocks until every other task is done: whichever worker picks
  // it up stalls, and the rest of that worker's queue can only complete if
  // other workers steal it. The Run caller would drain that queue too, so
  // it is held as well: the first index it claims blocks until every other
  // index is done. Deadlocks (and times out) if worker stealing is broken;
  // checked via completion, not timing, so it is load-independent.
  WorkStealingPool pool(4);
  const size_t n = 64;
  // Indices are dealt round-robin and owners pop LIFO, so the last index
  // dealt to worker 0 is the first task worker 0 executes.
  const size_t blocker = ((n - 1) / pool.num_workers()) * pool.num_workers();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  std::atomic<size_t> done{0};
  const auto wait_for = [&done](size_t others) {
    while (done.load(std::memory_order_acquire) < others) {
      std::this_thread::yield();
    }
  };
  pool.Run(n, [&](size_t i) {
    if (std::this_thread::get_id() == caller) {
      wait_for(n - 1);  // everything but this index
    } else if (i == blocker) {
      wait_for(n - 2);  // everything but this index and the caller's
    }
    hits[i].fetch_add(1);
    done.fetch_add(1, std::memory_order_acq_rel);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  EXPECT_GT(pool.steal_count(), 0u);
}

TEST(WorkStealingPoolTest, RunInsideSubmitTasksWhileEveryWorkerIsBusy) {
  // Every worker sits in a Submit task that calls Run, so no worker is
  // idle to take the dealt indices: each caller must run its own. (A Run
  // that only waited for the workers would deadlock here.)
  WorkStealingPool pool(4);
  const unsigned workers = pool.num_workers();
  const size_t n = 32;
  std::vector<std::atomic<int>> hits(workers * n);
  for (auto& h : hits) h.store(0);
  std::atomic<unsigned> entered{0};
  std::atomic<unsigned> finished{0};
  for (unsigned w = 0; w < workers; ++w) {
    pool.Submit([&, w] {
      // Hold every worker inside a task before any Run starts.
      entered.fetch_add(1);
      while (entered.load() < workers) std::this_thread::yield();
      pool.Run(n, [&, w](size_t i) { hits[w * n + i].fetch_add(1); });
      finished.fetch_add(1);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(finished.load(), workers);
  for (size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "run " << k / n << ", index " << k % n;
  }
}

TEST(WorkStealingPoolTest, ConcurrentRunsFromSeveralThreadsHitEverySlotOnce) {
  WorkStealingPool pool(3);
  constexpr size_t kCallers = 4;
  constexpr size_t kRounds = 25;
  const size_t n = 48;
  std::vector<std::atomic<int>> hits(kCallers * kRounds * n);
  for (auto& h : hits) h.store(0);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t r = 0; r < kRounds; ++r) {
        const size_t base = (c * kRounds + r) * n;
        pool.Run(n, [&, base](size_t i) { hits[base + i].fetch_add(1); });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (size_t k = 0; k < hits.size(); ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "slot " << k;
  }
}

TEST(WorkStealingPoolTest, WorkersSurviveManyShortConcurrentRuns) {
  // Run callers claim dealt indices outside the pool's wake-up lock, so a
  // worker woken for an index often finds it already taken. It must go
  // back to waiting, not exit: after a storm of short concurrent Runs,
  // every worker is still there to take one Submit task each — tasks that
  // only finish once all of them have started.
  WorkStealingPool pool(4);
  constexpr size_t kCallers = 3;
  constexpr size_t kRounds = 2000;
  std::atomic<size_t> total{0};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (size_t r = 0; r < kRounds; ++r) {
        const size_t n = 2 + (c + r) % 2;
        pool.Run(n, [&](size_t) { total.fetch_add(1); });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * kRounds * 5 / 2);
  const unsigned workers = pool.num_workers();
  std::atomic<unsigned> started{0};
  for (unsigned w = 0; w < workers; ++w) {
    pool.Submit([&] {
      started.fetch_add(1);
      while (started.load() < workers) std::this_thread::yield();
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(started.load(), workers);
}

Dataset SmallFleet(int taxis, uint64_t seed) {
  WorkloadConfig workload_config;
  workload_config.num_taxis = taxis;
  workload_config.target_points = 60;
  RoadGenConfig road_config;
  road_config.cols = 12;
  road_config.rows = 12;
  auto workload = GenerateTaxiWorkload(workload_config, road_config, seed);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  return workload->dataset;
}

TEST(WorkStealingPoolTest, BatchRunnerOutputMatchesStaticDispatch) {
  // Dispatch policy moves work between threads, never between RNG streams,
  // so work-stealing and static batch runs are bit-identical.
  const Dataset input = SmallFleet(24, 7);
  auto run = [&](ShardDispatch dispatch, unsigned threads) {
    BatchRunnerConfig config;
    config.pipeline.m = 5;
    config.shards = 6;
    config.threads = threads;
    config.dispatch = dispatch;
    BatchRunner runner(config);
    Rng rng(404);
    auto out = runner.Anonymize(input, rng);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return *std::move(out);
  };
  const Dataset statically = run(ShardDispatch::kStatic, 2);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const Dataset stolen = run(ShardDispatch::kWorkStealing, threads);
    ASSERT_EQ(stolen.size(), statically.size()) << "threads " << threads;
    for (size_t i = 0; i < stolen.size(); ++i) {
      EXPECT_EQ(stolen[i].points(), statically[i].points())
          << "threads " << threads << ", trajectory " << i;
    }
  }
}

TEST(WorkStealingPoolTest, BatchRunnerReportsShardSkew) {
  const Dataset input = SmallFleet(24, 9);
  BatchRunnerConfig config;
  config.pipeline.m = 5;
  config.shards = 4;
  BatchRunner runner(config);
  Rng rng(5);
  auto out = runner.Anonymize(input, rng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const BatchReport& report = runner.report();
  ASSERT_EQ(report.shard_wall_seconds.size(), 4u);
  EXPECT_LE(report.shard_wall_min, report.shard_wall_mean);
  EXPECT_LE(report.shard_wall_mean, report.shard_wall_max);
  double sum = 0.0;
  for (const double s : report.shard_wall_seconds) {
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_NEAR(report.shard_wall_mean, sum / 4.0, 1e-12);
}

TEST(BoundedQueueTest, FifoOrderSingleThread) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.Push(i));
  queue.Close();
  for (int i = 0; i < 5; ++i) {
    auto v = queue.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(BoundedQueueTest, PushAfterCloseFails) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.Push(1));
  queue.Close();
  EXPECT_FALSE(queue.Push(2));
  auto v = queue.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(BoundedQueueTest, BackpressureBlocksProducerUntilConsumed) {
  BoundedQueue<int> queue(2);
  std::atomic<int> pushed{0};
  std::thread producer([&] {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(queue.Push(i));
      pushed.fetch_add(1);
    }
  });
  // The producer can buffer at most `capacity` items ahead of the consumer.
  while (pushed.load() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LE(pushed.load(), 3);  // 2 queued + possibly 1 in flight
  for (int i = 0; i < 6; ++i) {
    auto v = queue.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  producer.join();
  EXPECT_EQ(pushed.load(), 6);
}

TEST(BoundedQueueTest, CloseUnblocksWaitingConsumer) {
  BoundedQueue<int> queue(4);
  std::thread consumer([&] { EXPECT_FALSE(queue.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  consumer.join();
}

TEST(BoundedQueueTest, ManyProducersManyConsumers) {
  BoundedQueue<int> queue(16);
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kItemsEach; ++i) {
        ASSERT_TRUE(queue.Push(p * kItemsEach + i));
      }
    });
  }
  std::atomic<long long> total{0};
  std::atomic<int> count{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = queue.Pop()) {
        total.fetch_add(*v);
        count.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.Close();
  for (auto& t : consumers) t.join();
  const int n = kProducers * kItemsEach;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(total.load(), static_cast<long long>(n) * (n - 1) / 2);
}

}  // namespace
}  // namespace frt
