// Interval metrics exporter for the serving layer.
//
// Follows the LDMS sampler / storage-policy split: the dispatcher thread
// samples — each metrics tick publishes one ServiceSnapshot on its
// obs::SnapshotBoard (service/service_snapshot.h) — and a dedicated
// exporter thread stores: every interval it reads the latest snapshot off
// that board, formats it as one machine-readable `frt_metrics`
// key=value line (plus optional `frt_feed` per-feed lines) and appends it
// to a file or stderr. The exporter pulls; nothing pushes into it, so a
// slow disk never backpressures the dispatcher, and a wedged dispatcher
// is still visible (the exporter re-emits the last snapshot with a fresh
// timestamp, so consumers can alert on a stale `seq`).
//
// Line format (stable, parse-with-awk friendly; one record per line):
//
//   frt_metrics ts_ms=<unix ms> seq=<n> uptime_ms=... feeds=...
//     active_sessions=... queue_depth=... backlog_windows=... in_flight=...
//     windows_closed=... windows_published=... windows_refused=...
//     windows_deadline_closed=... trajs_in=... trajs_published=...
//     feeds_quarantined=... publish_per_s=<delta throughput>
//     close_wait_p50_ms=...
//     close_wait_p99_ms=... publish_p50_ms=... publish_p99_ms=...
//     eps_spent_max=... ckpt_seq=... ckpt_age_ms=... ckpt_written=...
//     ckpt_errors=...
//
//   frt_feed ts_ms=... feed=<id> eps_spent=... eps_remaining=...
//     windows_published=... windows_refused=...
//
// With Options::histograms, one per-stage line per interval and stage
// (close_wait, queue_wait, anonymize, publish, sink, checkpoint), from
// the snapshot's stage summaries — cumulative over the run, exact
// counts, ~1.6% quantile error:
//
//   frt_stage ts_ms=... stage=<name> count=<samples> p50_ms=...
//     p99_ms=... max_ms=... mean_ms=...
//
// `publish_per_s` is computed by the exporter from consecutive emitted
// snapshots (delta trajectories / delta uptime), so the sampler only ever
// reports monotone counters — the LDMS rule that samplers sample and
// storage policies derive.

#ifndef FRT_SERVICE_METRICS_EXPORTER_H_
#define FRT_SERVICE_METRICS_EXPORTER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "obs/registry.h"
#include "service/service_snapshot.h"

namespace frt {

/// \brief Interval exporter thread (see file comment). Start() spawns it,
/// Stop() joins it and flushes a final line.
class MetricsExporter {
 public:
  struct Options {
    /// Output: a file path (appended, created if missing) or "-" for
    /// stderr.
    std::string path;
    /// Emission interval.
    int64_t interval_ms = 1000;
    /// Also emit one `frt_feed` line per feed each interval. Off by
    /// default: with tens of thousands of feeds the per-feed lines
    /// dominate the file.
    bool per_feed = false;
    /// Also emit one `frt_stage` histogram line per stage each interval.
    bool histograms = false;
  };

  /// `board` (not owned) must outlive the exporter; the CLIs pass
  /// ServiceDispatcher::snapshots().
  MetricsExporter(Options options,
                  const obs::SnapshotBoard<ServiceSnapshot>& board);
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// \brief Opens the output and spawns the exporter thread.
  Status Start();

  /// \brief Joins the exporter thread, then synchronously emits one final
  /// line for the board's latest snapshot — stopped after the dispatcher's
  /// Finish(), the file always ends with the shutdown snapshot, even when
  /// it landed mid-interval. Idempotent.
  void Stop();

  /// Milliseconds between emitted lines.
  int64_t interval_ms() const {
    return interval_ms_.load(std::memory_order_relaxed);
  }

  /// \brief Changes the emission interval at runtime (admin /control).
  /// Ends the wait in progress: the next line follows one new interval
  /// after the call.
  void SetIntervalMs(int64_t ms);

  /// Lines written so far (tests).
  size_t lines_written() const;

 private:
  void Loop();
  /// Formats and appends one line set for `snapshot`. Returns false on a
  /// write error (reported once to stderr; the exporter then stops
  /// writing but never takes the service down — metrics are diagnostics,
  /// not data).
  bool Emit(const ServiceSnapshot& snapshot);

  Options options_;
  const obs::SnapshotBoard<ServiceSnapshot>& board_;
  std::atomic<int64_t> interval_ms_{1000};
  std::FILE* out_ = nullptr;
  bool owns_out_ = false;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool writable_ = true;  ///< cleared after the first write error
  size_t lines_written_ = 0;

  // Exporter-thread state for delta throughput.
  bool have_prev_ = false;
  size_t prev_published_ = 0;
  int64_t prev_uptime_ms_ = 0;

  std::thread thread_;
  bool started_ = false;
};

}  // namespace frt

#endif  // FRT_SERVICE_METRICS_EXPORTER_H_
