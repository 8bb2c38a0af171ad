// ServiceDispatcher: the multi-feed anonymization service.
//
// One dispatcher multiplexes many independent trajectory feeds through one
// shared WorkStealingPool:
//
//   ingest threads --Offer--> [arrival BoundedQueue]      (backpressure)
//                                   |
//                         dispatcher thread
//                 route -> FeedSession -> close windows
//                 (count, --close-after-ms deadline, final)
//                                   |
//                     admission (per-feed budgets)
//                                   |
//                  pool.Submit(window anonymization job)
//                                   |
//            workers --> [completion BoundedQueue] --> dispatcher
//                 charge budgets -> sink (per-feed window order)
//
// Threading model. Offer() is called from any number of ingest threads and
// blocks on the bounded arrival queue — that is the service's ingress
// backpressure. ONE dispatcher thread owns every session (assembler,
// accountants, reports), so budget accounting needs no locks; the only
// work it delegates is the pure (window, rng) -> published-dataset batch
// job, which runs on the shared pool with per-window state it owns
// outright. A job with several shards fans them (and its displacement
// audit) out over the same pool from inside its task — its worker runs
// shards while idle workers steal the rest — so one hot feed can use every
// core; a single-shard job runs inline. Workers hand results back through
// the completion queue, whose capacity equals the in-flight cap, so a
// worker never blocks on it.
//
// Ordering and determinism. Windows of ONE feed execute strictly one at a
// time, in close order: admission always sees the predecessor's recorded
// spend, sinks observe each feed in window order, and the per-feed RNG
// stream (seeded from master seed + feed id + generation, forked per
// window at close) never depends on other feeds. Cross-feed concurrency —
// up to max_in_flight window jobs from distinct feeds — is where the pool
// earns its keep. Consequence: a feed's published windows are
// bit-identical between a solo run and any multiplexed run at the same
// seed, which is also what makes per-feed budget isolation testable. The
// single-feed CLI (frt_stream) is this service with one feed named
// "stream" (service/feed_ingest.h).
//
// Window closure. Count (the buffer reached window_size), wall-clock
// deadline (--close-after-ms: a non-empty window is published no later
// than that many ms after its oldest uncovered arrival; the latency SLO
// for trickle feeds), and final (input finished). Idle sessions
// (--evict-idle-ms) are flushed and torn down; their budget carries into
// any successor session conservatively (see feed_session.h).

#ifndef FRT_SERVICE_DISPATCHER_H_
#define FRT_SERVICE_DISPATCHER_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <atomic>

#include "common/bounded_queue.h"
#include "common/result.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "runtime/work_stealing_pool.h"
#include "service/checkpoint.h"
#include "service/feed_session.h"
#include "service/service_snapshot.h"
#include "stream/stream_config.h"
#include "traj/dataset.h"

namespace frt {

/// Configuration of the multi-feed service.
struct ServiceConfig {
  /// Per-feed streaming behavior: window geometry, budgets/accounting,
  /// close_after_ms, batch pipeline. Every session applies this config to
  /// its own feed. `stream.batch.pool` is managed by the service: a window
  /// with shards > 1 runs its shards and audit on the shared pool (the
  /// window job's worker plus whichever workers are idle); shards == 1
  /// runs inline with a serial audit.
  StreamConfig stream;
  /// Shared pool workers. 0 picks max(2, hardware concurrency): even on
  /// one core the service needs a worker besides the dispatcher so feeds
  /// overlap.
  unsigned pool_threads = 0;
  /// Concurrent window jobs across all feeds; backpressure on submission.
  /// 0 means 2x pool workers.
  size_t max_in_flight = 0;
  /// Arrival queue capacity, in trajectories; the ingress backpressure
  /// bound. 0 means 4x window_size.
  size_t arrival_queue_capacity = 0;
  /// Closed-but-not-yet-executed windows held across all sessions before
  /// the dispatcher pauses ingress (arrivals then pile into the bounded
  /// queue and Offer blocks — end-to-end backpressure when feeds outrun
  /// the pool). 0 means 4x max_in_flight.
  size_t max_backlog_windows = 0;
  /// Sessions with no arrival for this long are flushed and evicted
  /// (budget state carries into any successor). 0 disables eviction.
  int64_t idle_evict_ms = 0;
  /// Durable budget ledgers: when non-empty, per-feed ledger snapshots are
  /// checkpointed into this directory and recovered from it on Start()
  /// through the conservative PreloadSpent/PreloadFloor carry path. The
  /// write-ahead rule: a snapshot covering a window's spend is made
  /// durable BEFORE that window reaches the sink, so a crash can only
  /// under-grant remaining budget, never over-grant (see
  /// service/checkpoint.h). Empty disables checkpointing.
  std::string state_dir;
  /// Cadence (ms) for interval snapshots covering ledger changes with no
  /// publish to ride on (session revivals, evictions). Publish-driven
  /// write-ahead snapshots ignore this — they are mandatory.
  int64_t checkpoint_interval_ms = 1000;
  /// Cadence (ms) of the metrics tick that builds and publishes the
  /// ServiceSnapshot (service/service_snapshot.h); tunable at runtime
  /// through SetMetricsIntervalMs.
  int64_t metrics_interval_ms = 1000;
  /// Registry the frt_serve_* counters/gauges register into (not owned;
  /// must outlive the service). The metrics tick writes them from the
  /// snapshot it publishes; counters add each tick's delta, so they stay
  /// additive process-wide mirrors of the per-run ServiceReport. Tests
  /// that need bit-exact registry values construct their own Registry.
  obs::Registry* registry = &obs::Registry::Default();
};

/// Per-feed outcome, merged across the feed's session generations.
struct FeedReport {
  std::string feed;
  /// Session generations this feed went through (1 = never evicted).
  uint64_t sessions = 1;
  /// True when the feed's session was idle-evicted and not re-opened.
  bool evicted = false;
  /// True when the feed was quarantined (malformed input, decode failure,
  /// or a per-feed pipeline error): its session was torn down, its backlog
  /// dropped, and further arrivals were refused — without failing the
  /// sibling feeds.
  bool quarantined = false;
  /// First fault that quarantined the feed (empty unless quarantined).
  std::string quarantine_reason;
  /// Merged per-feed streaming report. Counters are summed across
  /// generations; epsilon fields are the latest session's (which already
  /// carry the predecessors' spend).
  StreamReport stream;
  /// Per-feed latency aggregates across every generation, mirroring the
  /// service-wide fields (close wait: oldest arrival -> close; publish:
  /// close -> sink-ready).
  double close_wait_p50_ms = 0.0;
  double close_wait_p99_ms = 0.0;
  double close_wait_max_ms = 0.0;
  double publish_p50_ms = 0.0;
  double publish_p99_ms = 0.0;
  double publish_max_ms = 0.0;
};

/// Service-wide aggregates over one Run. The counters are the shutdown
/// ServiceSnapshot's.
struct ServiceReport : ServiceCounters {
  size_t feeds = 0;
  size_t peak_active_sessions = 0;
  double wall_seconds = 0.0;
  /// Oldest-arrival -> window-close latency percentiles in ms — the
  /// distribution --close-after-ms bounds.
  double close_wait_p50_ms = 0.0;
  double close_wait_p99_ms = 0.0;
  double close_wait_max_ms = 0.0;
  /// Window-close -> published (queueing + anonymization) in ms.
  double publish_p50_ms = 0.0;
  double publish_p99_ms = 0.0;
  double publish_max_ms = 0.0;
  /// Durability (state_dir set): the last durable sequence number and
  /// the feeds revived from a prior snapshot.
  uint64_t checkpoint_sequence = 0;
  size_t feeds_recovered = 0;
  /// Per-feed reports, sorted by feed id.
  std::vector<FeedReport> feeds_report;
};

/// True when any feed dropped anything on budget; frt_serve maps this to
/// exit code 3.
bool ServiceHadRefusals(const ServiceReport& report);

/// Receives each published window on the dispatcher thread, per feed in
/// window order (feeds interleave). A non-OK return aborts the service.
using ServiceSink = std::function<Status(
    const std::string& feed, const Dataset& published, const WindowReport&)>;

/// \brief Session-oriented serving front-end (see file comment).
class ServiceDispatcher {
 public:
  ServiceDispatcher(ServiceConfig config, ServiceSink sink);
  /// Finishes (abandoning queued input) if the caller never called
  /// Finish().
  ~ServiceDispatcher();

  ServiceDispatcher(const ServiceDispatcher&) = delete;
  ServiceDispatcher& operator=(const ServiceDispatcher&) = delete;

  /// \brief Spawns the shared pool and the dispatcher thread. `seed` is
  /// the master seed every per-feed RNG stream derives from.
  Status Start(uint64_t seed);

  /// \brief Hands one arrival to the service, blocking when the arrival
  /// queue is full (ingress backpressure). Thread-safe. Returns false once
  /// the service is finishing or aborted — the producer should stop.
  bool Offer(std::string feed, Trajectory t);

  /// \brief Reports `feed` as untrustworthy (malformed frame, decode
  /// failure): the dispatcher tears down its session, drops its backlog,
  /// and refuses its further arrivals, leaving every other feed
  /// untouched. Thread-safe and idempotent; ordered with Offer() calls
  /// from the same producer thread (both ride the arrival queue). Returns
  /// false once the service is finishing or aborted.
  bool OfferQuarantine(std::string feed, std::string reason);

  /// \brief Reports that `feed`'s input broke off at a malformed record
  /// (a local reader's parse error). Every window that closed before the
  /// fault still publishes; the arrivals after the last closed window are
  /// dropped (never published as a trailing partial window, never
  /// charged), further arrivals are refused, and the feed is reported as
  /// quarantined with `reason`. Which windows publish depends only on the
  /// input before the fault, never on how far the pool has got. Same
  /// threading and ordering as OfferQuarantine.
  bool OfferInputFault(std::string feed, std::string reason);

  /// \brief Closes ingress, drains every session (final partial windows
  /// included), waits for all in-flight jobs, and joins the dispatcher.
  /// Returns the first error the run hit (ingest routing, pipeline, sink,
  /// or accounting); budget refusals are NOT errors — see report().
  Status Finish();

  /// Aggregated diagnostics; valid after Finish().
  const ServiceReport& report() const { return report_; }

  /// \brief The feed's session as Finish() left it; its accountants hold
  /// the feed's final ledgers. nullptr for a feed never seen, or whose
  /// session was evicted or quarantined (OfferQuarantine). Valid only
  /// after Finish().
  const FeedSession* FinishedSession(const std::string& feed) const {
    const auto it = feeds_.find(feed);
    return finished_ && it != feeds_.end() ? it->second.session.get()
                                           : nullptr;
  }

  const ServiceConfig& config() const { return config_; }

  /// \brief Where each metrics tick publishes its ServiceSnapshot (empty
  /// before Start()). Safe to read from any thread at any time; a reader
  /// never blocks the dispatcher (see obs::SnapshotBoard).
  const obs::SnapshotBoard<ServiceSnapshot>& snapshots() const {
    return snapshots_;
  }

  /// \brief Retunes the metrics tick at runtime (admin /control).
  /// Thread-safe; takes effect at the next dispatcher wakeup.
  void SetMetricsIntervalMs(int64_t ms) {
    metrics_interval_ms_.store(std::max<int64_t>(ms, 1),
                               std::memory_order_relaxed);
  }

 private:
  struct Completion {
    WindowJob job;
    Result<Dataset> published = Status::Internal("job not executed");
    BatchReport batch;
    /// When the worker picked the job up (queue wait ends) and how long
    /// the anonymization ran, stamped by the worker for the dispatcher's
    /// stage histograms.
    std::chrono::steady_clock::time_point started_at{};
    double run_ms = 0.0;
  };
  struct Arrival {
    std::string feed;
    Trajectory trajectory;
    /// Fault markers: no trajectory, `reason` set instead.
    enum class Kind { kTrajectory, kQuarantine, kInputFault };
    Kind kind = Kind::kTrajectory;
    std::string reason;
  };
  /// A feed's state across session generations (dispatcher thread only).
  struct FeedSlot {
    std::unique_ptr<FeedSession> session;  ///< null while evicted
    FeedBudgetCarry carry;
    uint64_t generations = 0;
    /// Counters merged out of evicted generations.
    StreamReport merged;
    bool ever_evicted = false;
    /// The feed was declared untrustworthy: session gone, backlog
    /// dropped, arrivals refused. Never revived.
    bool quarantined = false;
    /// The feed's input ended at a fault (OfferInputFault): arrivals
    /// refused, windows closed before the fault still publish.
    bool input_failed = false;
    /// First fault of either kind.
    std::string quarantine_reason;
    /// Reported as quarantined (FeedReport::quarantined).
    bool faulted() const { return quarantined || input_failed; }
    /// Membership flag for live_order_ (lazy compaction).
    bool in_live_order = false;
    /// Earliest deadline currently pushed on the heap for this feed
    /// (time_point::max() when none): a new deadline only pushes when it
    /// beats this, so the heap never grows faster than one entry per
    /// arrival batch. Reset on eviction/quarantine so a revived session
    /// re-arms from scratch.
    std::chrono::steady_clock::time_point armed_deadline =
        std::chrono::steady_clock::time_point::max();
    /// Per-feed latency histograms, surviving across generations (the
    /// fixed obs::Histogram footprint is what makes per-feed aggregates
    /// affordable where the old sample rings were not).
    obs::Histogram close_wait_hist;
    obs::Histogram publish_hist;
  };
  /// Min-heap entry: the earliest moment `feed` may need attention
  /// (deadline window closure or idle eviction). Entries are lazy — a
  /// deadline that moved later or disappeared leaves a stale entry that
  /// is discarded at pop — so arming is push-only and the dispatcher's
  /// per-iteration deadline lookup is O(1) instead of a scan of every
  /// feed ever seen.
  struct DeadlineEntry {
    std::chrono::steady_clock::time_point when;
    std::string feed;
  };
  struct DeadlineLater {
    bool operator()(const DeadlineEntry& a, const DeadlineEntry& b) const {
      return a.when > b.when;
    }
  };
  /// A completed window whose spend is charged but whose output has not
  /// yet been handed to the sink — it waits for the write-ahead checkpoint
  /// covering that spend.
  struct PendingPublish {
    std::string feed;
    Dataset published;
    WindowReport report;
  };

  void DispatcherLoop();
  /// Routes one arrival into its session (reviving evicted feeds;
  /// dropping arrivals of quarantined feeds). A window-closure failure is
  /// a per-feed fault — the feed is quarantined, the service survives.
  void Route(Arrival&& arrival, std::chrono::steady_clock::time_point now);
  /// Earliest future moment `slot` needs attention: its close_after_ms
  /// window deadline or its idle-eviction time, whichever comes first.
  std::optional<std::chrono::steady_clock::time_point> EffectiveDeadline(
      const FeedSlot& slot) const;
  /// Pushes `slot`'s effective deadline onto the heap if it beats the
  /// entry already armed for it.
  void ArmDeadline(const std::string& feed, FeedSlot& slot);
  /// Pops every due heap entry and services it: deadline window closure,
  /// then idle eviction, then re-arm. O(log feeds) per wakeup; stale
  /// entries are discarded.
  void ProcessDueDeadlines(std::chrono::steady_clock::time_point now);
  /// Closes one window on `slot`'s session, keeping the running backlog
  /// counter. A closure failure (duplicate object id, ...) quarantines
  /// the feed; returns false in that case.
  bool CloseSessionWindow(const std::string& feed, FeedSlot& slot,
                          WindowClose reason,
                          std::chrono::steady_clock::time_point now);
  /// Declares `feed` untrustworthy: merges and tears down its session,
  /// drops its backlog (an in-flight result is discarded when it lands),
  /// marks the slot so arrivals and revivals are refused. Idempotent.
  /// Never touches sibling feeds.
  void QuarantineFeed(const std::string& feed, std::string reason);
  /// OfferInputFault on the dispatcher thread: drops the feed's buffered
  /// arrivals and refuses further ones; its closed windows drain as usual.
  void EndInputAtFault(const std::string& feed, std::string reason);
  /// Submits admissible backlog windows while in-flight capacity lasts.
  void SubmitReady();
  /// Absorbs one finished job: charges budgets, samples latency, and
  /// queues the output for FlushPublishes. Does NOT sink.
  void AbsorbCompletion(std::unique_ptr<Completion> completion);
  /// Publishes every pending window: one durable checkpoint covering all
  /// their spend (state_dir set), then the sink calls, then the
  /// drained-session evictions. Must run before CloseExpired/EvictIdle/
  /// SubmitReady at every absorb site so eviction never outruns a pending
  /// publish.
  void FlushPublishes();
  /// Snapshots every feed's carry state and durably replaces the
  /// on-disk checkpoint.
  Status WriteCheckpointNow();
  /// Interval snapshot for dirty ledgers with no publish to ride on.
  void MaybeCheckpoint(std::chrono::steady_clock::time_point now);
  /// Runs the metrics tick when the metrics interval elapsed.
  void MaybePublishSnapshot(std::chrono::steady_clock::time_point now);
  /// The metrics tick: builds one ServiceSnapshot, writes the frt_serve_*
  /// series from it, and publishes it on snapshots_.
  void PublishSnapshot(std::chrono::steady_clock::time_point now);
  /// Writes every frt_serve_* series from `now`: gauges are set, counters
  /// add their delta against `before` (the previous tick; null at the
  /// first).
  void WriteRegistrySeries(const ServiceSnapshot& now,
                           const ServiceSnapshot* before);
  /// A feed's cumulative report: the merged generations plus the live
  /// session. The one per-feed aggregation behind the metrics tick and the
  /// final report; only the latter asks for the window history.
  StreamReport FeedTotals(const FeedSlot& slot, bool with_windows) const;
  /// Records a fatal error once and stops admitting new work.
  void Abort(Status status);
  /// Merges the slot's session report and budget carry into the slot and
  /// tears the session down.
  void TearDownSession(FeedSlot* slot);
  /// Idle eviction: TearDownSession plus the eviction bookkeeping.
  void EvictSession(FeedSlot* slot);
  void BuildFinalReport();

  ServiceConfig config_;
  ServiceSink sink_;
  uint64_t master_seed_ = 0;
  std::unique_ptr<WorkStealingPool> pool_;
  std::unique_ptr<BoundedQueue<Arrival>> arrivals_;
  std::unique_ptr<BoundedQueue<std::unique_ptr<Completion>>> completions_;
  std::thread dispatcher_;
  bool started_ = false;
  bool finished_ = false;

  // Dispatcher-thread state.
  std::unordered_map<std::string, FeedSlot> feeds_;
  std::vector<std::string> feed_order_;  ///< first-seen order (reports)
  /// Feeds with a live session — the only ones SubmitReady scans. Entries
  /// whose session died (evicted or quarantined) are compacted out lazily
  /// at the next scan (live_order_dirty_), so a long-lived service that
  /// has seen N feeds but serves k pays O(k), not O(N), per scan.
  std::vector<std::string> live_order_;
  bool live_order_dirty_ = false;
  /// Lazy min-heap over every live feed's next deadline (see
  /// DeadlineEntry) — replaces the per-iteration scan of all feeds.
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      DeadlineLater>
      deadlines_;
  /// Closed-but-not-yet-submitted windows across all sessions, maintained
  /// incrementally (close: +1, submit/refusal: -delta, quarantine:
  /// -backlog) — the backpressure test no longer scans every session.
  size_t backlog_windows_ = 0;
  size_t active_sessions_ = 0;
  size_t in_flight_ = 0;
  /// Start of the next SubmitReady scan: rotated to just past the last
  /// feed that actually got a submission slot, so with more backlogged
  /// feeds than slots the grant cycles round-robin instead of re-serving
  /// the scan's front-runners every call.
  size_t submit_rr_ = 0;
  bool aborted_ = false;
  /// stream.stop_when_exhausted tripped: ingress is closed and discarded,
  /// closed windows drain, and the run ends cleanly (not an error).
  bool stopping_ = false;
  Status error_ = Status::OK();
  /// Service-wide per-stage latency histograms (dispatcher thread only).
  /// Bounded memory, merged per-feed views live in each FeedSlot.
  obs::Histogram close_wait_hist_;
  obs::Histogram publish_hist_;
  obs::Histogram queue_wait_hist_;
  obs::Histogram anonymize_hist_;
  obs::Histogram checkpoint_hist_;
  obs::Histogram sink_hist_;
  // Durability + metrics (dispatcher thread only, except store_ creation
  // and recovery, which Start() runs before the thread spawns).
  std::optional<CheckpointStore> store_;
  std::vector<PendingPublish> pending_;
  uint64_t checkpoint_seq_ = 0;  ///< resumes from the recovered snapshot
  /// Event-driven counters (sessions, checkpoints); the tick adds the
  /// per-feed totals on top. Its per-feed fields stay zero.
  ServiceCounters events_;
  /// Ledger state changed since the last snapshot (spend, generation, or
  /// window-counter movement).
  bool ledger_dirty_ = false;
  std::chrono::steady_clock::time_point started_at_{};
  std::chrono::steady_clock::time_point last_checkpoint_{};
  std::chrono::steady_clock::time_point last_metrics_{};
  uint64_t metrics_seq_ = 0;
  ServiceReport report_;
  /// The loop's final tick is running: the snapshot it builds carries
  /// finished=true so /readyz can flip before Finish() returns.
  bool final_tick_ = false;
  /// Runtime-tunable metrics cadence (SetMetricsIntervalMs, any thread);
  /// seeded from config_.metrics_interval_ms at construction.
  std::atomic<int64_t> metrics_interval_ms_{1000};
  /// The one publication point of every telemetry surface.
  obs::SnapshotBoard<ServiceSnapshot> snapshots_;
  /// frt_serve_* series (see ServiceConfig::registry), written only by
  /// WriteRegistrySeries, in the order of the series tables in
  /// dispatcher.cc.
  std::vector<obs::Counter*> counters_;
  std::vector<obs::Gauge*> gauges_;
  /// Process-wide frt_stage_ms cells, recorded next to the plain per-run
  /// histograms above.
  obs::HistogramCell* cell_close_wait_ = nullptr;
  obs::HistogramCell* cell_publish_ = nullptr;
  obs::HistogramCell* cell_queue_wait_ = nullptr;
  obs::HistogramCell* cell_anonymize_ = nullptr;
  obs::HistogramCell* cell_checkpoint_ = nullptr;
  obs::HistogramCell* cell_sink_ = nullptr;
};

}  // namespace frt

#endif  // FRT_SERVICE_DISPATCHER_H_
