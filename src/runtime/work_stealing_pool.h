// Work-stealing task executor for shard-granularity parallelism.
//
// ParallelFor (common/parallel.h) assigns index i to worker i % W up front,
// so one heavy shard — or several colliding in the same stride class —
// leaves every other worker idle while its owner straggles. The pool keeps
// one deque per worker instead: indices are dealt round-robin, owners pop
// their own deque LIFO, and a worker that runs dry steals FIFO from a
// victim, so load follows the actual task durations rather than the initial
// deal. Workers are persistent across Run() calls, which lets the serving
// layer reuse one pool for every window instead of re-spawning threads.
//
// Beyond the fork-join Run(), the pool accepts fire-and-forget closures
// via Submit(): the multi-feed serving layer schedules one whole-window
// anonymization job per task, so many independent feeds multiplex onto one
// set of workers. A window job with several shards calls Run() from inside
// its task; the job's own worker works through its shards while idle
// workers steal the rest, so one hot feed can use every core. Submitted
// tasks drain ahead of Run() indices and ahead of shutdown, and WaitIdle()
// is the end-of-service barrier.
//
// Determinism contract: the pool schedules *where* a task runs, never what
// it computes. Callers that write results to pre-sized per-index slots and
// pre-fork any RNG streams (as BatchRunner does) get bit-identical output
// at every worker count.

#ifndef FRT_RUNTIME_WORK_STEALING_POOL_H_
#define FRT_RUNTIME_WORK_STEALING_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace frt {

/// \brief Persistent pool of worker threads executing index tasks with
/// work stealing.
class WorkStealingPool {
 public:
  /// Spawns the workers; 0 means hardware concurrency. A 1-worker pool
  /// spawns no threads and runs every task inline on the caller.
  explicit WorkStealingPool(unsigned num_threads = 0);

  /// Joins all workers. Must not be called while a Run is in flight on
  /// another thread.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// \brief Invokes fn(i) for every i in [0, n); returns once all
  /// invocations have completed.
  ///
  /// `fn` must be safe to call concurrently for distinct indices and must
  /// not throw. Run may be called from any thread, from several threads at
  /// once, and from inside a Submit() task or another Run's fn. The caller
  /// never just waits: it claims and runs indices of its own Run until none
  /// is left unclaimed, and idle workers steal the rest, so a Run completes
  /// even when every worker is busy (or blocked in a Run of its own).
  void Run(size_t n, const std::function<void(size_t)>& fn);

  /// \brief Enqueues a fire-and-forget task for asynchronous execution on
  /// the workers; returns immediately. The serving layer's unit of
  /// submission: one whole-window anonymization job per task.
  ///
  /// Tasks run concurrently with each other and with in-flight Run()s
  /// (idle workers prefer submitted tasks); they must not throw. On a
  /// 1-worker pool the task runs inline on the caller. Destruction drains
  /// all submitted tasks before joining the workers.
  void Submit(std::function<void()> task);

  /// Blocks until every Submit()ed task has finished. Callers that need
  /// per-task completion signals should build them into the task (the
  /// service's completion queue); this is the coarse end-of-run barrier.
  void WaitIdle();

  /// Tasks submitted via Submit() that have not yet finished. Racy read,
  /// diagnostic only.
  size_t submitted_pending() const {
    return async_pending_.load(std::memory_order_relaxed);
  }

  unsigned num_workers() const { return num_workers_; }

  /// Total Run indices a worker stole from another worker's deque since
  /// construction (a Run caller claiming its own indices does not count).
  /// Diagnostic only; racy reads are acceptable.
  uint64_t steal_count() const { return steals_; }

 private:
  /// One in-flight Run. Lives on its caller's stack: its tasks sit in the
  /// deques only until claimed, and the caller returns only after every
  /// index finished, so no thread can reach it after Run returns.
  struct RunState {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    std::atomic<size_t> done{0};
  };
  struct Task {
    RunState* run = nullptr;
    size_t index = 0;
  };
  // One mutex-guarded deque per worker. Shard tasks are milliseconds-plus,
  // so a tiny critical section per pop is noise; a lock-free Chase-Lev
  // deque would buy nothing here.
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void WorkerLoop(unsigned id);
  /// Worker `id`: its own deque LIFO, else steal FIFO from a victim.
  bool TryAcquire(unsigned id, Task* task);
  /// A Run caller: the oldest unclaimed task of `run` in any deque.
  bool TryAcquireOwn(const RunState* run, Task* task);
  void Execute(const Task& task);
  void CountSteal();

  unsigned num_workers_ = 1;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;

  // Sleep/wake protocol: workers sleep on work_cv_ until a submitted task,
  // a dealt Run index (queued_ > 0), or shutdown; Run callers sleep on
  // done_cv_ until their last index finished, WaitIdle until the
  // submitted tasks drained. queued_ only grows under mu_, so a worker
  // that checked it under mu_ cannot miss the wakeup.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ = false;
  /// Run indices dealt into the deques and not yet claimed.
  std::atomic<size_t> queued_{0};
  std::atomic<uint64_t> steals_{0};

  // Fire-and-forget tasks (Submit). Window jobs are tens of milliseconds,
  // so one central deque under mu_ is noise next to the task bodies;
  // per-worker deques would buy nothing at this granularity. Guarded by
  // mu_; async_pending_ counts queued + executing tasks and gates WaitIdle
  // and shutdown drain.
  std::deque<std::function<void()>> async_;
  std::atomic<size_t> async_pending_{0};
};

}  // namespace frt

#endif  // FRT_RUNTIME_WORK_STEALING_POOL_H_
