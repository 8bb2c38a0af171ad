// bench_stream — shard scheduler study: static stride assignment
// (ParallelFor) vs the work-stealing pool on a skewed-shard workload.
//
// The skew pattern is the stride-resonance pathology work stealing exists
// to fix: one heavy shard per fixed-size group (think "the downtown
// partition of every window"), so with W workers and a heavy period
// sharing a divisor with W, static dispatch piles several heavy shards onto
// one worker while the rest idle. Work stealing re-balances at runtime and
// should win >= 1.3x. Shard durations are emulated with timed sleeps, which
// isolates the scheduling policy and makes the A/B machine-independent (a
// CPU-spin variant would additionally need >= W free cores to show the
// same gap). The serving path end to end is measured by bench_serve and
// the e2ebench serve workloads.
//
//   FRT_SCALE=full  -> longer emulated shards.
//   FRT_THREADS=<n> -> threads on the shards (default 6).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "runtime/work_stealing_pool.h"

namespace {

// Threads for the scheduler study. Default 6: a worker count with a
// common factor with the heavy-shard period (8) is the realistic bad case
// for striding, and sleep-emulated shards do not need a core each.
unsigned StudyThreads() {
  const char* env = std::getenv("FRT_THREADS");
  if (env != nullptr) {
    const unsigned n = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    if (n > 0) return n;
  }
  return 6;
}

// Emulates a shard that takes `ms` of wall time.
void EmulateShard(double ms) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<long long>(ms * 1e3)));
}

double MedianSeconds(std::vector<double>& runs) {
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

}  // namespace

int main() {
  const bool full = frt::bench::FullScale();
  const unsigned threads = StudyThreads();

  // 64 shard-sized tasks, one heavy shard per group of 8. Durations are
  // fixed, so static assignment (task i -> worker i % W) is reproducible.
  const size_t kTasks = 64;
  const double kHeavyMs = full ? 40.0 : 12.0;
  const double kLightMs = full ? 2.0 : 0.6;
  std::vector<double> duration_ms(kTasks);
  for (size_t i = 0; i < kTasks; ++i) {
    duration_ms[i] = (i % 8 == 0) ? kHeavyMs : kLightMs;
  }
  const auto task = [&](size_t i) { EmulateShard(duration_ms[i]); };

  std::printf("bench_stream: dispatch A/B, %zu emulated shards "
              "(heavy %.1f ms every 8th, light %.1f ms), %u threads\n",
              kTasks, kHeavyMs, kLightMs, threads);

  const int kReps = 5;
  std::vector<double> static_runs, steal_runs;
  // Run's caller works through indices too, so W - 1 workers plus the
  // caller put the same W threads on the shards as ParallelFor. (A
  // 1-worker pool runs inline, so below W = 3 the pool keeps W workers.)
  frt::WorkStealingPool pool(threads > 2 ? threads - 1 : threads);
  for (int rep = 0; rep < kReps; ++rep) {
    frt::Stopwatch w1;
    frt::ParallelFor(kTasks, task, threads);
    static_runs.push_back(w1.ElapsedSeconds());
    frt::Stopwatch w2;
    pool.Run(kTasks, task);
    steal_runs.push_back(w2.ElapsedSeconds());
  }
  const double static_s = MedianSeconds(static_runs);
  const double steal_s = MedianSeconds(steal_runs);
  const double speedup = steal_s > 0.0 ? static_s / steal_s : 0.0;
  std::printf("  static dispatch (ParallelFor): %7.3f s median\n", static_s);
  std::printf("  work stealing   (pool)       : %7.3f s median\n", steal_s);
  std::printf("  work-stealing speedup on skewed shards: %.2fx %s\n\n",
              speedup, speedup >= 1.3 ? "(>= 1.3x target met)"
                                      : "(below 1.3x target)");
  return 0;
}
