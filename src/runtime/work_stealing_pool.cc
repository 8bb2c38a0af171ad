#include "runtime/work_stealing_pool.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/trace.h"

namespace frt {

WorkStealingPool::WorkStealingPool(unsigned num_threads) {
  num_workers_ =
      num_threads != 0 ? num_threads : std::thread::hardware_concurrency();
  if (num_workers_ == 0) num_workers_ = 1;
  if (num_workers_ == 1) return;  // inline execution, no threads
  queues_.reserve(num_workers_);
  for (unsigned i = 0; i < num_workers_; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  threads_.reserve(num_workers_);
  for (unsigned i = 0; i < num_workers_; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkStealingPool::Run(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (threads_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  RunState run;
  run.fn = &fn;
  run.n = n;
  {
    // Deal round-robin. queued_ grows under mu_ (see the wake protocol in
    // the header) and before the pushes, so it never undercounts a task a
    // worker could already pop.
    std::lock_guard<std::mutex> lock(mu_);
    queued_.fetch_add(n, std::memory_order_acq_rel);
    for (size_t i = 0; i < n; ++i) {
      WorkerQueue& q = *queues_[i % num_workers_];
      std::lock_guard<std::mutex> queue_lock(q.mu);
      q.tasks.push_back(Task{&run, i});
    }
  }
  // The caller takes at least one index itself; wake only as many workers
  // as could take the rest, so a short Run does not stir every idle worker.
  const size_t helpers = std::min<size_t>(n - 1, num_workers_);
  for (size_t i = 0; i < helpers; ++i) work_cv_.notify_one();
  // Work through our own indices instead of waiting on workers that may
  // all be busy — possibly inside Runs of their own.
  Task task;
  while (TryAcquireOwn(&run, &task)) Execute(task);
  // Every index is claimed; wait for the ones other threads are running.
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&run] {
    return run.done.load(std::memory_order_acquire) == run.n;
  });
}

void WorkStealingPool::Submit(std::function<void()> task) {
  if (threads_.empty()) {
    // 1-worker pool: inline on the caller, matching Run's cost model.
    task();
    return;
  }
  async_pending_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(mu_);
    async_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void WorkStealingPool::WaitIdle() {
  if (threads_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] {
    return async_pending_.load(std::memory_order_acquire) == 0;
  });
}

void WorkStealingPool::CountSteal() {
  steals_.fetch_add(1, std::memory_order_relaxed);
  if (obs::TraceEnabled()) {
    // Instant marker: a steal has no meaningful duration, only a time.
    const auto now = std::chrono::steady_clock::now();
    obs::EmitSpan("steal", obs::SpanCategory::kPool, {}, now, now);
  }
}

bool WorkStealingPool::TryAcquire(unsigned id, Task* task) {
  {
    WorkerQueue& own = *queues_[id];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      *task = own.tasks.back();  // LIFO keeps the owner's cache warm
      own.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  for (unsigned step = 1; step < num_workers_; ++step) {
    WorkerQueue& victim = *queues_[(id + step) % num_workers_];
    std::unique_lock<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      *task = victim.tasks.front();  // FIFO: steal the oldest, coldest task
      victim.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      lock.unlock();
      CountSteal();
      return true;
    }
  }
  return false;
}

bool WorkStealingPool::TryAcquireOwn(const RunState* run, Task* task) {
  for (const auto& queue : queues_) {
    std::lock_guard<std::mutex> lock(queue->mu);
    for (auto it = queue->tasks.begin(); it != queue->tasks.end(); ++it) {
      if (it->run != run) continue;
      *task = *it;
      queue->tasks.erase(it);
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  return false;
}

void WorkStealingPool::Execute(const Task& task) {
  RunState* run = task.run;
  const size_t n = run->n;
  (*run->fn)(task.index);
  // The increment that completes the run releases its caller, which then
  // destroys *run — nothing below may touch it.
  if (run->done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
    std::lock_guard<std::mutex> lock(mu_);
    done_cv_.notify_all();
  }
}

void WorkStealingPool::WorkerLoop(unsigned id) {
  obs::SetTraceThreadName("pool-worker-" + std::to_string(id));
  for (;;) {
    std::function<void()> async_task;
    const bool tracing = obs::TraceEnabled();
    const auto idle_start = tracing ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || !async_.empty() ||
               queued_.load(std::memory_order_acquire) > 0;
      });
      if (!async_.empty()) {
        // Submitted tasks drain first — including during shutdown, so the
        // destructor never strands an accepted job.
        async_task = std::move(async_.front());
        async_.pop_front();
      } else if (shutdown_ && queued_.load(std::memory_order_acquire) == 0) {
        return;
      }
      // Otherwise go look for dealt Run indices. Run callers claim them
      // outside mu_, so the deques may already be empty again; the worker
      // then finds nothing and goes back to waiting.
    }
    if (tracing && obs::TraceEnabled()) {
      // Only report waits long enough to matter; sub-10us wakeups would
      // swamp the trace with scheduling noise.
      const auto idle_end = std::chrono::steady_clock::now();
      if (idle_end - idle_start >= std::chrono::microseconds(10)) {
        obs::EmitSpan("pool_idle", obs::SpanCategory::kPool, {}, idle_start,
                      idle_end);
      }
    }
    if (async_task) {
      {
        obs::ScopedSpan task_span("pool_task", obs::SpanCategory::kPool);
        async_task();
      }
      if (async_pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
      continue;
    }
    // Help with dealt Run indices until no deque holds any.
    Task task;
    while (TryAcquire(id, &task)) Execute(task);
  }
}

}  // namespace frt
