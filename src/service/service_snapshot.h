// ServiceSnapshot: the one point-in-time view of a ServiceDispatcher.
//
// The dispatcher thread builds one snapshot per metrics tick (and always
// at start and at shutdown) from state it already owns, then publishes it
// on an obs::SnapshotBoard. Every telemetry surface renders from that
// board and nothing else: the admin plane's /feedz, /healthz and /readyz,
// the `frt_metrics` / `frt_feed` / `frt_stage` lines of the metrics file
// (service/metrics_exporter.h), and the frt_serve_* registry series, which
// the tick writes from the snapshot it just built. Readers never touch
// dispatcher-owned state.
//
// The counters are cumulative over one dispatcher's run. The final report
// (ServiceReport) takes its counters from the shutdown snapshot, so after
// Finish() every surface agrees with it bit for bit.

#ifndef FRT_SERVICE_SERVICE_SNAPSHOT_H_
#define FRT_SERVICE_SERVICE_SNAPSHOT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace frt {

/// Monotone service-wide counters, shared by ServiceSnapshot (live) and
/// ServiceReport (final).
struct ServiceCounters {
  size_t sessions_created = 0;
  size_t sessions_evicted = 0;
  size_t windows_closed = 0;
  size_t windows_published = 0;
  size_t windows_refused = 0;
  size_t windows_deadline_closed = 0;
  size_t trajectories_in = 0;
  size_t trajectories_published = 0;
  size_t trajectories_refused = 0;
  size_t trajectories_evicted = 0;
  /// Feeds quarantined by per-feed faults (see FeedReport::quarantined).
  size_t feeds_quarantined = 0;
  /// Durable ledger snapshots written (state_dir set).
  size_t checkpoints_written = 0;
  /// Failed snapshot writes; each aborts the run, so a non-zero value
  /// explains an unexpected exit.
  size_t checkpoint_errors = 0;
};

struct ServiceSnapshot : ServiceCounters {
  /// Monotone tick counter; a scraper that sees the same seq twice with a
  /// growing published_at age is looking at a wedged dispatcher.
  uint64_t seq = 0;
  int64_t uptime_ms = 0;
  /// When this view was built (steady clock) — readers derive staleness.
  std::chrono::steady_clock::time_point published_at{};
  /// The dispatcher loop has exited (final view).
  bool finished = false;
  /// The run hit a fatal error (the error surfaces through Finish()).
  bool aborted = false;
  size_t feeds = 0;  ///< every feed ever seen
  size_t active_sessions = 0;
  size_t queue_depth = 0;      ///< arrival queue occupancy
  size_t backlog_windows = 0;  ///< closed-but-unsubmitted windows
  size_t in_flight = 0;        ///< window jobs on the pool
  double close_wait_p50_ms = 0.0;
  double close_wait_p99_ms = 0.0;
  double publish_p50_ms = 0.0;
  double publish_p99_ms = 0.0;
  /// Largest per-feed guarantee so far (max over feeds of epsilon_spent).
  double epsilon_spent_max = 0.0;
  /// Durability lag: sequence and age of the last durable snapshot;
  /// negative age when checkpointing is off or nothing was written yet.
  uint64_t checkpoint_seq = 0;
  double checkpoint_age_ms = -1.0;

  struct Feed {
    std::string feed;
    /// Cumulative guarantee: wholesale total or max per-object spend.
    double epsilon_spent = 0.0;
    /// max(0, budget - spent); +inf when the ledger is not enforcing.
    double epsilon_remaining = 0.0;
    size_t windows_published = 0;
    size_t windows_refused = 0;
    /// Closed-but-unsubmitted windows this feed holds right now.
    size_t backlog = 0;
    bool quarantined = false;
    std::string quarantine_reason;
  };
  /// Every feed ever seen, in first-seen order.
  std::vector<Feed> feeds_detail;

  /// One per-stage latency summary, cumulative over the run (~1.6%
  /// quantile error, exact count).
  struct Stage {
    std::string stage;
    uint64_t count = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
    double mean_ms = 0.0;
  };
  /// close_wait, queue_wait, anonymize, publish, sink, checkpoint.
  std::vector<Stage> stages;
};

}  // namespace frt

#endif  // FRT_SERVICE_SERVICE_SNAPSHOT_H_
