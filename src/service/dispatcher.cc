#include "service/dispatcher.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/trace.h"
#include "runtime/batch_runner.h"

namespace frt {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// How often the dispatcher checks the completion queue while jobs are in
/// flight and no arrival wakes it sooner. Window jobs are tens of
/// milliseconds, so a 1 ms poll adds negligible latency and negligible
/// load to the single consumer thread.
constexpr std::chrono::milliseconds kCompletionPoll(1);

/// Folds one session generation's report into a feed's running totals.
/// Counters sum; epsilon fields take the newer generation's values (its
/// accountants were preloaded with the predecessors' spend, so they are
/// already cumulative); with `with_windows` the bounded window history
/// appends.
void MergeStreamReport(StreamReport* into, const StreamReport& from,
                       bool with_windows, size_t max_window_reports) {
  into->windows_closed += from.windows_closed;
  into->windows_published += from.windows_published;
  into->windows_refused += from.windows_refused;
  into->windows_deadline_closed += from.windows_deadline_closed;
  into->trajectories_in += from.trajectories_in;
  into->trajectories_published += from.trajectories_published;
  into->trajectories_refused += from.trajectories_refused;
  into->trajectories_evicted += from.trajectories_evicted;
  into->epsilon_spent = from.epsilon_spent;
  into->epsilon_wholesale_equivalent = from.epsilon_wholesale_equivalent;
  if (!with_windows) return;
  into->windows.insert(into->windows.end(), from.windows.begin(),
                       from.windows.end());
  if (max_window_reports > 0 && into->windows.size() > max_window_reports) {
    into->windows.erase(into->windows.begin(),
                        into->windows.end() -
                            static_cast<ptrdiff_t>(max_window_reports));
  }
}

/// The frt_serve_* counters, each the registry mirror of one cumulative
/// snapshot field.
struct CounterSeries {
  const char* name;
  const char* help;
  size_t ServiceCounters::*field;
};
constexpr CounterSeries kCounterSeries[] = {
    {"frt_serve_sessions_created_total",
     "Feed sessions opened (all generations)",
     &ServiceCounters::sessions_created},
    {"frt_serve_sessions_evicted_total", "Feed sessions idle-evicted",
     &ServiceCounters::sessions_evicted},
    {"frt_serve_windows_closed_total",
     "Windows closed (count, deadline, or final)",
     &ServiceCounters::windows_closed},
    {"frt_serve_windows_published_total",
     "Windows anonymized and handed to the sink",
     &ServiceCounters::windows_published},
    {"frt_serve_windows_refused_total",
     "Windows refused by budget admission",
     &ServiceCounters::windows_refused},
    {"frt_serve_windows_deadline_closed_total",
     "Windows closed by the close-after-ms deadline",
     &ServiceCounters::windows_deadline_closed},
    {"frt_serve_trajectories_in_total", "Trajectories routed into sessions",
     &ServiceCounters::trajectories_in},
    {"frt_serve_trajectories_published_total",
     "Trajectories in published windows",
     &ServiceCounters::trajectories_published},
    {"frt_serve_feeds_quarantined_total",
     "Feeds quarantined by per-feed faults",
     &ServiceCounters::feeds_quarantined},
    {"frt_serve_checkpoints_written_total",
     "Durable ledger snapshots written",
     &ServiceCounters::checkpoints_written},
    {"frt_serve_checkpoint_errors_total", "Failed ledger snapshot writes",
     &ServiceCounters::checkpoint_errors},
};

/// The frt_serve_* gauges: point-in-time snapshot fields.
struct GaugeSeries {
  const char* name;
  const char* help;
  double (*value)(const ServiceSnapshot&);
};
constexpr GaugeSeries kGaugeSeries[] = {
    {"frt_serve_active_sessions", "Feed sessions currently live",
     [](const ServiceSnapshot& s) { return double(s.active_sessions); }},
    {"frt_serve_queue_depth", "Arrival queue occupancy",
     [](const ServiceSnapshot& s) { return double(s.queue_depth); }},
    {"frt_serve_backlog_windows", "Closed-but-unsubmitted windows",
     [](const ServiceSnapshot& s) { return double(s.backlog_windows); }},
    {"frt_serve_in_flight", "Window jobs on the pool",
     [](const ServiceSnapshot& s) { return double(s.in_flight); }},
    {"frt_serve_feeds", "Feeds ever seen",
     [](const ServiceSnapshot& s) { return double(s.feeds); }},
    {"frt_serve_eps_spent_max", "Largest per-feed epsilon spent so far",
     [](const ServiceSnapshot& s) { return s.epsilon_spent_max; }},
};

}  // namespace

bool ServiceHadRefusals(const ServiceReport& report) {
  return report.windows_refused > 0 || report.trajectories_evicted > 0;
}

ServiceDispatcher::ServiceDispatcher(ServiceConfig config, ServiceSink sink)
    : config_(std::move(config)), sink_(std::move(sink)) {
  // Normalize the window geometry (as WindowAssembler clamps it), then
  // the service-level knobs.
  if (config_.stream.window_size == 0) config_.stream.window_size = 1;
  if (config_.stream.window_stride == 0 ||
      config_.stream.window_stride > config_.stream.window_size) {
    config_.stream.window_stride = config_.stream.window_size;
  }
  if (config_.pool_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    config_.pool_threads = std::max(2u, hw);
  }
  if (config_.max_in_flight == 0) {
    config_.max_in_flight = 2 * config_.pool_threads;
  }
  if (config_.arrival_queue_capacity == 0) {
    config_.arrival_queue_capacity = 4 * config_.stream.window_size;
  }
  if (config_.max_backlog_windows == 0) {
    config_.max_backlog_windows = 4 * config_.max_in_flight;
  }
  metrics_interval_ms_.store(std::max<int64_t>(config_.metrics_interval_ms, 1),
                             std::memory_order_relaxed);
  obs::Registry& reg = *config_.registry;
  for (const CounterSeries& series : kCounterSeries) {
    counters_.push_back(reg.GetCounter(series.name, series.help));
  }
  for (const GaugeSeries& series : kGaugeSeries) {
    gauges_.push_back(reg.GetGauge(series.name, series.help));
  }
  const auto stage_cell = [&reg](std::string_view stage) {
    return reg.GetHistogram(
        obs::WithLabel("frt_stage_ms", "stage", stage),
        "Per-stage latency (ms) across the whole process");
  };
  cell_close_wait_ = stage_cell("close_wait");
  cell_publish_ = stage_cell("publish");
  cell_queue_wait_ = stage_cell("queue_wait");
  cell_anonymize_ = stage_cell("anonymize");
  cell_checkpoint_ = stage_cell("checkpoint");
  cell_sink_ = stage_cell("sink");
}

ServiceDispatcher::~ServiceDispatcher() {
  if (started_ && !finished_) (void)Finish();
}

Status ServiceDispatcher::Start(uint64_t seed) {
  if (started_) return Status::FailedPrecondition("service already started");
  master_seed_ = seed;
  if (!config_.state_dir.empty()) {
    // Open the store and recover BEFORE the dispatcher thread exists: a
    // corrupt snapshot must fail the start (running without the recovered
    // spend would re-grant budget), and the recovered slots are handed to
    // the thread through its creation.
    Result<CheckpointStore> store = CheckpointStore::Open(config_.state_dir);
    if (!store.ok()) return store.status();
    store_.emplace(*std::move(store));
    FRT_ASSIGN_OR_RETURN(std::optional<ServiceCheckpoint> snapshot,
                         store_->Load());
    if (snapshot.has_value()) {
      checkpoint_seq_ = snapshot->sequence;
      for (FeedCheckpoint& feed : snapshot->feeds) {
        FeedSlot& slot = feeds_[feed.feed];
        feed_order_.push_back(feed.feed);
        // The recovered feed looks exactly like an idle-evicted one: its
        // first arrival opens the next session generation, whose
        // constructor preloads this carry through PreloadSpent /
        // PreloadFloor — recovery can only under-grant, never over-grant.
        slot.generations = feed.generations;
        slot.carry.wholesale_spent = feed.wholesale_spent;
        slot.carry.per_object_floor = feed.per_object_floor;
        slot.carry.windows_closed =
            static_cast<size_t>(feed.windows_closed);
        slot.ever_evicted = true;
        // Surface the carried spend in reports even if the feed stays
        // dormant this run (a revived session's cumulative epsilon
        // overwrites these on merge).
        slot.merged.epsilon_spent =
            config_.stream.accounting == BudgetAccounting::kWholesale
                ? feed.wholesale_spent
                : feed.per_object_floor;
        slot.merged.epsilon_wholesale_equivalent = feed.wholesale_spent;
      }
      report_.feeds_recovered = snapshot->feeds.size();
    }
  }
  pool_ = std::make_unique<WorkStealingPool>(config_.pool_threads);
  arrivals_ =
      std::make_unique<BoundedQueue<Arrival>>(config_.arrival_queue_capacity);
  // Capacity == the in-flight cap, so a worker delivering a completion can
  // never block: at most max_in_flight completions exist at once.
  completions_ = std::make_unique<BoundedQueue<std::unique_ptr<Completion>>>(
      config_.max_in_flight);
  started_ = true;
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  return Status::OK();
}

bool ServiceDispatcher::Offer(std::string feed, Trajectory t) {
  if (!started_) return false;
  Arrival arrival;
  arrival.feed = std::move(feed);
  arrival.trajectory = std::move(t);
  return arrivals_->Push(std::move(arrival));
}

bool ServiceDispatcher::OfferQuarantine(std::string feed,
                                        std::string reason) {
  if (!started_) return false;
  // Rides the arrival queue so it lands on the dispatcher thread in order
  // with the producer's earlier Offer() calls — the feed's already-queued
  // good arrivals are still routed before the fault takes effect.
  Arrival arrival;
  arrival.feed = std::move(feed);
  arrival.kind = Arrival::Kind::kQuarantine;
  arrival.reason = std::move(reason);
  return arrivals_->Push(std::move(arrival));
}

bool ServiceDispatcher::OfferInputFault(std::string feed,
                                        std::string reason) {
  if (!started_) return false;
  // Ordered after the feed's earlier arrivals, like OfferQuarantine: the
  // windows they close are exactly the ones that publish.
  Arrival arrival;
  arrival.feed = std::move(feed);
  arrival.kind = Arrival::Kind::kInputFault;
  arrival.reason = std::move(reason);
  return arrivals_->Push(std::move(arrival));
}

Status ServiceDispatcher::Finish() {
  if (!started_) return Status::FailedPrecondition("service never started");
  if (finished_) return error_;
  arrivals_->Close();
  dispatcher_.join();
  finished_ = true;
  return error_;
}

void ServiceDispatcher::Abort(Status status) {
  if (aborted_) return;
  aborted_ = true;
  error_ = std::move(status);
  // Fail ingress fast: producers blocked in Offer() observe the close and
  // stop; arrivals already queued are drained and discarded.
  arrivals_->Close();
}

void ServiceDispatcher::Route(Arrival&& arrival,
                              SteadyClock::time_point now) {
  auto [it, inserted] = feeds_.try_emplace(arrival.feed);
  FeedSlot& slot = it->second;
  if (inserted) feed_order_.push_back(arrival.feed);
  // A quarantined feed never revives: its stream already proved
  // untrustworthy, so everything it sends after the fault is dropped.
  if (slot.quarantined || slot.input_failed) return;
  if (!slot.session) {
    // Generation 0, or a revival of an idle-evicted feed: the carry
    // preloads the predecessor's budget state conservatively.
    slot.session = std::make_unique<FeedSession>(
        arrival.feed, config_.stream, master_seed_, slot.generations,
        slot.carry);
    ++slot.generations;
    // Generation bumps must be durable (a successor session's RNG stream
    // derives from them); an interval snapshot picks this up.
    ledger_dirty_ = true;
    ++events_.sessions_created;
    ++active_sessions_;
    report_.peak_active_sessions =
        std::max(report_.peak_active_sessions, active_sessions_);
  }
  if (!slot.in_live_order) {
    slot.in_live_order = true;
    live_order_.push_back(arrival.feed);
  }
  const std::string feed = arrival.feed;
  slot.session->set_evict_when_drained(false);  // the feed is live again
  slot.session->Offer(std::move(arrival.trajectory), now);
  while (slot.session && slot.session->WindowReady()) {
    if (!CloseSessionWindow(feed, slot, WindowClose::kCount, now)) return;
  }
  ArmDeadline(feed, slot);
}

std::optional<SteadyClock::time_point> ServiceDispatcher::EffectiveDeadline(
    const FeedSlot& slot) const {
  if (!slot.session || slot.quarantined) return std::nullopt;
  std::optional<SteadyClock::time_point> deadline =
      slot.session->CloseDeadline();
  if (config_.idle_evict_ms > 0 && !slot.session->evict_when_drained()) {
    const SteadyClock::time_point idle_at =
        slot.session->last_arrival() +
        std::chrono::milliseconds(config_.idle_evict_ms);
    deadline = deadline.has_value() ? std::min(*deadline, idle_at) : idle_at;
  }
  return deadline;
}

void ServiceDispatcher::ArmDeadline(const std::string& feed,
                                    FeedSlot& slot) {
  const std::optional<SteadyClock::time_point> deadline =
      EffectiveDeadline(slot);
  if (!deadline.has_value() || *deadline >= slot.armed_deadline) return;
  slot.armed_deadline = *deadline;
  deadlines_.push(DeadlineEntry{*deadline, feed});
}

void ServiceDispatcher::ProcessDueDeadlines(SteadyClock::time_point now) {
  while (!deadlines_.empty() && deadlines_.top().when <= now) {
    const DeadlineEntry entry = deadlines_.top();
    deadlines_.pop();
    const auto it = feeds_.find(entry.feed);
    if (it == feeds_.end()) continue;
    FeedSlot& slot = it->second;
    // Only the entry the slot considers armed is live; anything else was
    // superseded by a smaller push and that smaller entry will serve the
    // feed.
    if (entry.when != slot.armed_deadline) continue;
    slot.armed_deadline = SteadyClock::time_point::max();
    if (!slot.session || slot.quarantined) continue;
    if (config_.stream.close_after_ms > 0) {
      const auto close_deadline = slot.session->CloseDeadline();
      if (close_deadline.has_value() && now >= *close_deadline) {
        if (!CloseSessionWindow(entry.feed, slot, WindowClose::kDeadline,
                                now)) {
          continue;
        }
      }
    }
    if (config_.idle_evict_ms > 0 && !slot.session->evict_when_drained() &&
        now - slot.session->last_arrival() >=
            std::chrono::milliseconds(config_.idle_evict_ms)) {
      // Flush the trailing partial window first — eviction publishes, it
      // never drops.
      if (slot.session->uncovered() > 0) {
        if (!CloseSessionWindow(entry.feed, slot, WindowClose::kFinal,
                                now)) {
          continue;
        }
      }
      if (slot.session->Drained()) {
        EvictSession(&slot);
      } else {
        slot.session->set_evict_when_drained(true);
      }
    }
    if (slot.session && !slot.quarantined) ArmDeadline(entry.feed, slot);
  }
}

bool ServiceDispatcher::CloseSessionWindow(const std::string& feed,
                                           FeedSlot& slot,
                                           WindowClose reason,
                                           SteadyClock::time_point now) {
  if (Status st = slot.session->CloseWindow(reason, now); !st.ok()) {
    QuarantineFeed(feed, st.ToString());
    return false;
  }
  ++backlog_windows_;
  return true;
}

void ServiceDispatcher::QuarantineFeed(const std::string& feed,
                                       std::string reason) {
  auto [it, inserted] = feeds_.try_emplace(feed);
  FeedSlot& slot = it->second;
  if (inserted) feed_order_.push_back(feed);
  if (slot.quarantined) return;
  slot.quarantined = true;
  if (!slot.input_failed) {  // first fault wins
    slot.quarantine_reason = std::move(reason);
    FRT_LOG(Warning) << "service: quarantined feed '" << feed
                     << "': " << slot.quarantine_reason;
  }
  if (slot.session) {
    // Tear the session down, keeping what it already did for the final
    // report. The backlog is dropped (its windows never execute); spend
    // already charged stays charged, same rule as every discard path. An
    // in-flight job is self-contained and its completion is ignored.
    backlog_windows_ -= slot.session->backlog_size();
    TearDownSession(&slot);
  }
}

void ServiceDispatcher::EndInputAtFault(const std::string& feed,
                                        std::string reason) {
  auto [it, inserted] = feeds_.try_emplace(feed);
  FeedSlot& slot = it->second;
  if (inserted) feed_order_.push_back(feed);
  if (slot.quarantined || slot.input_failed) return;  // first fault wins
  slot.input_failed = true;
  slot.quarantine_reason = std::move(reason);
  FRT_LOG(Warning) << "service: input of feed '" << feed
                   << "' failed: " << slot.quarantine_reason
                   << " (windows closed before the fault still publish)";
  // Every window that closed before the fault is a pure function of the
  // input read so far, so it stays in the backlog (or on the pool) and
  // publishes. The arrivals after the last closed window never form one.
  if (slot.session) slot.session->DropBuffered();
}

void ServiceDispatcher::TearDownSession(FeedSlot* slot) {
  MergeStreamReport(&slot->merged, slot->session->report(),
                    /*with_windows=*/true, config_.stream.max_window_reports);
  slot->carry = slot->session->Carry();
  slot->session.reset();
  slot->armed_deadline = SteadyClock::time_point::max();
  live_order_dirty_ = true;
  ledger_dirty_ = true;
  --active_sessions_;
}

void ServiceDispatcher::EvictSession(FeedSlot* slot) {
  TearDownSession(slot);
  slot->ever_evicted = true;
  ++events_.sessions_evicted;
}

void ServiceDispatcher::SubmitReady() {
  if (aborted_) return;
  // The running counter makes the no-work case O(1): with no closed
  // window waiting anywhere there is nothing to submit, no refusal to
  // notice, and no refusal-drained session to evict (those are handled
  // where their last job lands, in FlushPublishes), so the per-feed scan
  // below — O(live feeds) — is skipped entirely. Arrivals on one hot
  // feed no longer pay for thousands of dormant siblings.
  if (backlog_windows_ == 0) return;
  // Lazy compaction: drop entries whose session died (evicted or
  // quarantined) since the last scan, so the scan length tracks LIVE
  // feeds — a service that has seen 10k feeds but serves 20 pays for 20.
  if (live_order_dirty_) {
    // Keep the rotation anchored on the same feed across the compaction.
    const std::string anchor =
        live_order_.empty() ? std::string()
                            : live_order_[submit_rr_ % live_order_.size()];
    live_order_.erase(
        std::remove_if(live_order_.begin(), live_order_.end(),
                       [this](const std::string& name) {
                         FeedSlot& slot = feeds_.at(name);
                         const bool dead =
                             !slot.session || slot.quarantined;
                         if (dead) slot.in_live_order = false;
                         return dead;
                       }),
        live_order_.end());
    live_order_dirty_ = false;
    submit_rr_ = 0;
    for (size_t i = 0; i < live_order_.size(); ++i) {
      if (live_order_[i] == anchor) {
        submit_rr_ = i;
        break;
      }
    }
  }
  if (live_order_.empty()) return;
  // The scan starts where the last one granted its final slot: feeds that
  // were served rotate to the back, so scarce in-flight slots cycle
  // round-robin over the backlogged feeds instead of re-serving the
  // front of the list every call.
  const size_t n = live_order_.size();
  size_t last_granted = submit_rr_;
  bool granted = false;
  for (size_t k = 0; k < n; ++k) {
    if (in_flight_ >= config_.max_in_flight) break;
    const size_t pos = (submit_rr_ + k) % n;
    const std::string& name = live_order_[pos];
    FeedSlot& slot = feeds_.at(name);
    if (!slot.session || slot.quarantined) continue;  // died mid-scan
    const size_t backlog_before = slot.session->backlog_size();
    std::optional<WindowJob> job = slot.session->NextSubmittable();
    // Admission refusals, a stop_when_exhausted drop and the submission
    // all shrink the backlog; the running counter absorbs whatever
    // NextSubmittable consumed.
    backlog_windows_ -= backlog_before - slot.session->backlog_size();
    if (config_.stream.stop_when_exhausted && !stopping_ &&
        slot.session->had_refusals()) {
      // End service at the first refusal: stop ingesting, drain what
      // already closed, finish cleanly.
      stopping_ = true;
      arrivals_->Close();
    }
    if (!job.has_value()) {
      // The backlog may have just drained through admission refusals (no
      // completion will fire): an eviction waiting on that drain runs now.
      if (slot.session->evict_when_drained() && slot.session->Drained()) {
        EvictSession(&slot);
      }
      continue;
    }
    ++in_flight_;
    granted = true;
    last_granted = pos;
    // The job is self-contained: the worker touches nothing owned by the
    // session (which could be evicted only when drained — and it is busy
    // now, so it cannot drain before this completion lands).
    auto shared_job = std::make_shared<WindowJob>(std::move(*job));
    BatchRunnerConfig batch_config = config_.stream.batch;
    // A sharded window fans its shards and its audit out over the shared
    // pool from inside this job: the job's worker works through them while
    // idle workers steal the rest, so even one hot feed uses every core.
    // A single shard runs inline with a serial audit.
    batch_config.pool = batch_config.shards > 1 ? pool_.get() : nullptr;
    BoundedQueue<std::unique_ptr<Completion>>* completions =
        completions_.get();
    pool_->Submit([shared_job, completions, batch_config] {
      auto completion = std::make_unique<Completion>();
      const SteadyClock::time_point started = SteadyClock::now();
      // close -> pickup is the pool scheduling delay this feed paid.
      obs::EmitSpan("queue_wait", obs::SpanCategory::kQueue,
                    shared_job->feed, shared_job->closed_at, started);
      BatchRunner runner(batch_config);
      completion->published =
          runner.Anonymize(shared_job->window, shared_job->rng);
      const SteadyClock::time_point ended = SteadyClock::now();
      obs::EmitSpan("anonymize", obs::SpanCategory::kAnonymize,
                    shared_job->feed, started, ended);
      completion->started_at = started;
      completion->run_ms =
          std::chrono::duration<double, std::milli>(ended - started)
              .count();
      completion->batch = runner.report();
      completion->job = std::move(*shared_job);
      completion->job.window = Dataset();  // the copy has served its purpose
      completions->Push(std::move(completion));
    });
  }
  // A scan that granted nothing keeps its anchor — rotating on empty
  // scans would shuffle the order without serving anyone.
  if (granted) submit_rr_ = (last_granted + 1) % n;
}

void ServiceDispatcher::AbsorbCompletion(
    std::unique_ptr<Completion> completion) {
  --in_flight_;
  FeedSlot& slot = feeds_.at(completion->job.feed);
  if (!slot.session) {
    // The feed was quarantined while this job was in flight; the session
    // is gone and the result is discarded (spend already merged into the
    // slot's carry at teardown).
    return;
  }
  FeedSession& session = *slot.session;
  if (aborted_) {
    session.Abandon();
    return;
  }
  if (!completion->published.ok()) {
    // A failed window pipeline poisons only its own feed: quarantine it
    // and keep serving the siblings.
    session.Abandon();
    QuarantineFeed(completion->job.feed,
                   completion->published.status().ToString());
    return;
  }
  const SteadyClock::time_point now = SteadyClock::now();
  const double publish_ms =
      std::chrono::duration<double, std::milli>(now -
                                                completion->job.closed_at)
          .count();
  // The whole close -> published interval, attributed to the feed.
  obs::EmitSpan("publish", obs::SpanCategory::kPublish,
                completion->job.feed, completion->job.closed_at, now);
  Result<WindowReport> window_report = session.Complete(
      completion->job, *completion->published, completion->batch,
      publish_ms);
  if (!window_report.ok()) {
    QuarantineFeed(completion->job.feed, window_report.status().ToString());
    return;
  }
  ledger_dirty_ = true;  // Complete() charged the accountants
  const double queue_wait_ms =
      std::chrono::duration<double, std::milli>(completion->started_at -
                                                completion->job.closed_at)
          .count();
  close_wait_hist_.Record(completion->job.close_wait_ms);
  publish_hist_.Record(publish_ms);
  queue_wait_hist_.Record(queue_wait_ms);
  anonymize_hist_.Record(completion->run_ms);
  cell_close_wait_->Record(completion->job.close_wait_ms);
  cell_publish_->Record(publish_ms);
  cell_queue_wait_->Record(queue_wait_ms);
  cell_anonymize_->Record(completion->run_ms);
  slot.close_wait_hist.Record(completion->job.close_wait_ms);
  slot.publish_hist.Record(publish_ms);
  // The spend is charged; the output waits in pending_ until
  // FlushPublishes has made a checkpoint covering it durable.
  PendingPublish pending;
  pending.feed = completion->job.feed;
  pending.published = *std::move(completion->published);
  pending.report = *window_report;
  pending_.push_back(std::move(pending));
}

void ServiceDispatcher::FlushPublishes() {
  if (pending_.empty()) return;
  if (aborted_) {
    // Outputs are discarded on abort; the budget above stays spent (same
    // rule as a failed sink: never publish what the ledger might not
    // cover, never refund what a worker already consumed).
    pending_.clear();
    return;
  }
  // Write-ahead: one durable snapshot covers every pending window's spend
  // (Complete() already charged it, so Carry() includes it). Only then may
  // the outputs leave the process. Batching amortizes the fsync across
  // every completion absorbed this round.
  if (store_.has_value()) {
    if (Status st = WriteCheckpointNow(); !st.ok()) {
      Abort(st);
      pending_.clear();
      return;
    }
  }
  for (PendingPublish& pending : pending_) {
    if (aborted_) break;
    FeedSlot& slot = feeds_.at(pending.feed);
    if (!slot.session) {
      // Quarantined after the window completed but before this flush: the
      // output is discarded (its spend stays charged and checkpointed).
      continue;
    }
    const SteadyClock::time_point sink_start = SteadyClock::now();
    if (Status st = sink_(pending.feed, pending.published, pending.report);
        !st.ok()) {
      Abort(st);
      break;
    }
    const SteadyClock::time_point sink_end = SteadyClock::now();
    obs::EmitSpan("sink", obs::SpanCategory::kPublish, pending.feed,
                  sink_start, sink_end);
    const double sink_ms =
        std::chrono::duration<double, std::milli>(sink_end - sink_start)
            .count();
    sink_hist_.Record(sink_ms);
    cell_sink_->Record(sink_ms);
    slot.session->RecordPublished(pending.report);
    if (slot.session->evict_when_drained() && slot.session->Drained()) {
      EvictSession(&slot);
    }
  }
  pending_.clear();
}

Status ServiceDispatcher::WriteCheckpointNow() {
  ServiceCheckpoint image;
  image.sequence = checkpoint_seq_ + 1;
  image.total_budget = config_.stream.total_budget;
  image.per_object_budget = config_.stream.per_object_budget;
  image.feeds.reserve(feed_order_.size());
  for (const auto& name : feed_order_) {
    const FeedSlot& slot = feeds_.at(name);
    FeedCheckpoint feed;
    feed.feed = name;
    feed.generations = slot.generations;
    const FeedBudgetCarry carry =
        slot.session ? slot.session->Carry() : slot.carry;
    feed.windows_closed = carry.windows_closed;
    feed.wholesale_spent = carry.wholesale_spent;
    feed.per_object_floor = carry.per_object_floor;
    image.feeds.push_back(std::move(feed));
  }
  const SteadyClock::time_point write_start = SteadyClock::now();
  if (Status st = store_->Write(image); !st.ok()) {
    // Counted before the abort so the last metrics tick shows WHY the
    // service died.
    ++events_.checkpoint_errors;
    return st;
  }
  checkpoint_seq_ = image.sequence;
  ++events_.checkpoints_written;
  ledger_dirty_ = false;
  last_checkpoint_ = SteadyClock::now();
  const double write_ms = std::chrono::duration<double, std::milli>(
                              last_checkpoint_ - write_start)
                              .count();
  checkpoint_hist_.Record(write_ms);
  cell_checkpoint_->Record(write_ms);
  return Status::OK();
}

void ServiceDispatcher::MaybeCheckpoint(SteadyClock::time_point now) {
  if (!store_.has_value() || !ledger_dirty_ || aborted_) return;
  if (now - last_checkpoint_ <
      std::chrono::milliseconds(std::max<int64_t>(
          config_.checkpoint_interval_ms, 1))) {
    return;
  }
  if (Status st = WriteCheckpointNow(); !st.ok()) Abort(st);
}

void ServiceDispatcher::MaybePublishSnapshot(SteadyClock::time_point now) {
  if (now - last_metrics_ <
      std::chrono::milliseconds(
          metrics_interval_ms_.load(std::memory_order_relaxed))) {
    return;
  }
  PublishSnapshot(now);
}

StreamReport ServiceDispatcher::FeedTotals(const FeedSlot& slot,
                                           bool with_windows) const {
  StreamReport totals;
  MergeStreamReport(&totals, slot.merged, with_windows,
                    config_.stream.max_window_reports);
  if (slot.session) {
    MergeStreamReport(&totals, slot.session->report(), with_windows,
                      config_.stream.max_window_reports);
  }
  return totals;
}

void ServiceDispatcher::PublishSnapshot(SteadyClock::time_point now) {
  auto s = std::make_shared<ServiceSnapshot>();
  static_cast<ServiceCounters&>(*s) = events_;
  s->seq = ++metrics_seq_;
  s->uptime_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     now - started_at_)
                     .count();
  s->published_at = now;
  s->finished = final_tick_;
  s->aborted = aborted_;
  s->feeds = feed_order_.size();
  s->active_sessions = active_sessions_;
  s->queue_depth = arrivals_->size();
  s->backlog_windows = backlog_windows_;
  s->in_flight = in_flight_;
  const double budget =
      config_.stream.accounting == BudgetAccounting::kWholesale
          ? config_.stream.total_budget
          : config_.stream.per_object_budget;
  s->feeds_detail.reserve(feed_order_.size());
  for (const auto& name : feed_order_) {
    const FeedSlot& slot = feeds_.at(name);
    const StreamReport totals = FeedTotals(slot, /*with_windows=*/false);
    s->windows_closed += totals.windows_closed;
    s->windows_published += totals.windows_published;
    s->windows_refused += totals.windows_refused;
    s->windows_deadline_closed += totals.windows_deadline_closed;
    s->trajectories_in += totals.trajectories_in;
    s->trajectories_published += totals.trajectories_published;
    s->trajectories_refused += totals.trajectories_refused;
    s->trajectories_evicted += totals.trajectories_evicted;
    if (slot.faulted()) ++s->feeds_quarantined;
    s->epsilon_spent_max = std::max(s->epsilon_spent_max, totals.epsilon_spent);
    ServiceSnapshot::Feed feed;
    feed.feed = name;
    feed.epsilon_spent = totals.epsilon_spent;
    feed.epsilon_remaining =
        budget > 0.0 ? std::max(0.0, budget - totals.epsilon_spent)
                     : std::numeric_limits<double>::infinity();
    feed.windows_published = totals.windows_published;
    feed.windows_refused = totals.windows_refused;
    feed.backlog = slot.session ? slot.session->backlog_size() : 0;
    feed.quarantined = slot.faulted();
    feed.quarantine_reason = slot.quarantine_reason;
    s->feeds_detail.push_back(std::move(feed));
  }
  // Histogram reads are O(buckets), so every tick can afford them all.
  s->close_wait_p50_ms = close_wait_hist_.Quantile(0.50);
  s->close_wait_p99_ms = close_wait_hist_.Quantile(0.99);
  s->publish_p50_ms = publish_hist_.Quantile(0.50);
  s->publish_p99_ms = publish_hist_.Quantile(0.99);
  const auto stage = [&s](const char* name, const obs::Histogram& h) {
    s->stages.push_back({name, h.count(), h.Quantile(0.50), h.Quantile(0.99),
                         h.max_ms(), h.mean_ms()});
  };
  stage("close_wait", close_wait_hist_);
  stage("queue_wait", queue_wait_hist_);
  stage("anonymize", anonymize_hist_);
  stage("publish", publish_hist_);
  stage("sink", sink_hist_);
  stage("checkpoint", checkpoint_hist_);
  s->checkpoint_seq = checkpoint_seq_;
  if (store_.has_value() && events_.checkpoints_written > 0) {
    s->checkpoint_age_ms =
        std::chrono::duration<double, std::milli>(now - last_checkpoint_)
            .count();
  }
  WriteRegistrySeries(*s, snapshots_.Read().get());
  snapshots_.Publish(std::move(s));
  last_metrics_ = now;
}

void ServiceDispatcher::WriteRegistrySeries(const ServiceSnapshot& now,
                                            const ServiceSnapshot* before) {
  for (size_t i = 0; i < counters_.size(); ++i) {
    const auto field = kCounterSeries[i].field;
    counters_[i]->Inc(now.*field - (before != nullptr ? before->*field : 0));
  }
  for (size_t i = 0; i < gauges_.size(); ++i) {
    gauges_[i]->Set(kGaugeSeries[i].value(now));
  }
}

void ServiceDispatcher::BuildFinalReport() {
  // The shutdown tick already aggregated every counter.
  const std::shared_ptr<const ServiceSnapshot> last = snapshots_.Read();
  static_cast<ServiceCounters&>(report_) = *last;
  report_.feeds = last->feeds;
  for (const auto& name : feed_order_) {
    const FeedSlot& slot = feeds_.at(name);
    FeedReport feed_report;
    feed_report.feed = name;
    feed_report.sessions = slot.generations;
    feed_report.evicted = !slot.session && slot.ever_evicted;
    feed_report.quarantined = slot.faulted();
    feed_report.quarantine_reason = slot.quarantine_reason;
    feed_report.stream = FeedTotals(slot, /*with_windows=*/true);
    feed_report.close_wait_p50_ms = slot.close_wait_hist.Quantile(0.50);
    feed_report.close_wait_p99_ms = slot.close_wait_hist.Quantile(0.99);
    feed_report.close_wait_max_ms = slot.close_wait_hist.max_ms();
    feed_report.publish_p50_ms = slot.publish_hist.Quantile(0.50);
    feed_report.publish_p99_ms = slot.publish_hist.Quantile(0.99);
    feed_report.publish_max_ms = slot.publish_hist.max_ms();
    report_.feeds_report.push_back(std::move(feed_report));
  }
  std::sort(report_.feeds_report.begin(), report_.feeds_report.end(),
            [](const FeedReport& a, const FeedReport& b) {
              return a.feed < b.feed;
            });
  report_.checkpoint_sequence = checkpoint_seq_;
  report_.close_wait_p50_ms = close_wait_hist_.Quantile(0.50);
  report_.close_wait_p99_ms = close_wait_hist_.Quantile(0.99);
  report_.close_wait_max_ms = close_wait_hist_.max_ms();
  report_.publish_p50_ms = publish_hist_.Quantile(0.50);
  report_.publish_p99_ms = publish_hist_.Quantile(0.99);
  report_.publish_max_ms = publish_hist_.max_ms();
}

void ServiceDispatcher::DispatcherLoop() {
  obs::SetTraceThreadName("dispatcher");
  Stopwatch wall;
  started_at_ = SteadyClock::now();
  last_checkpoint_ = started_at_;
  last_metrics_ = started_at_;
  // An immediate first snapshot: the admin plane and the exporter have a
  // view from the start, even in a sub-interval run.
  PublishSnapshot(started_at_);
  bool input_done = false;
  while (!input_done) {
    // Absorb whatever the workers finished, then publish it (write-ahead
    // checkpoint first), then top the pool back up.
    std::unique_ptr<Completion> completion;
    while (completions_->TryPop(&completion)) {
      AbsorbCompletion(std::move(completion));
    }
    FlushPublishes();
    SubmitReady();

    // Sleep until the next arrival — but no later than the earliest armed
    // session deadline, and no later than the completion poll when jobs
    // are in flight. The deadline heap makes this O(1) per iteration
    // where it used to scan every feed ever seen: the top entry may be
    // stale (its deadline moved later), which only costs one spurious
    // wakeup that pops and re-arms it.
    SteadyClock::time_point deadline = SteadyClock::time_point::max();
    bool timed = false;
    if (!aborted_ && !deadlines_.empty()) {
      deadline = deadlines_.top().when;
      timed = true;
    }
    // Housekeeping deadlines: the next metrics tick (unconditional — the
    // admin plane needs a fresh board even with no exporter), and the
    // interval snapshot for dirty ledgers that have no publish to ride on.
    deadline = std::min(
        deadline,
        last_metrics_ + std::chrono::milliseconds(metrics_interval_ms_.load(
                            std::memory_order_relaxed)));
    timed = true;
    if (store_.has_value() && ledger_dirty_ && !aborted_) {
      deadline = std::min(
          deadline,
          last_checkpoint_ + std::chrono::milliseconds(std::max<int64_t>(
                                 config_.checkpoint_interval_ms, 1)));
      timed = true;
    }

    if (!aborted_ && backlog_windows_ >= config_.max_backlog_windows) {
      // The pool is the bottleneck: pause ingress (arrivals pile into the
      // bounded queue until Offer blocks — end-to-end backpressure) and
      // wait directly for a completion to drain the backlog. A session
      // with backlog is busy or about to be, so a completion is coming.
      std::unique_ptr<Completion> completion;
      const SteadyClock::time_point wait_until =
          std::min(deadline, SteadyClock::now() + kCompletionPoll * 20);
      if (completions_->PopUntil(wait_until, &completion) ==
          QueuePop::kItem) {
        AbsorbCompletion(std::move(completion));
      }
      FlushPublishes();
      const SteadyClock::time_point now = SteadyClock::now();
      if (!aborted_ && !stopping_) ProcessDueDeadlines(now);
      MaybeCheckpoint(now);
      MaybePublishSnapshot(now);
      continue;
    }
    if (in_flight_ > 0) {
      deadline = std::min(deadline, SteadyClock::now() + kCompletionPoll);
      timed = true;
    }

    Arrival arrival;
    QueuePop popped;
    if (timed) {
      popped = arrivals_->PopUntil(deadline, &arrival);
    } else {
      std::optional<Arrival> item = arrivals_->Pop();
      if (item.has_value()) {
        arrival = std::move(*item);
        popped = QueuePop::kItem;
      } else {
        popped = QueuePop::kClosed;
      }
    }
    const SteadyClock::time_point now = SteadyClock::now();
    switch (popped) {
      case QueuePop::kItem:
        // After an abort or a stop_when_exhausted trip the remaining
        // ingress is drained and discarded.
        if (!aborted_ && !stopping_) {
          switch (arrival.kind) {
            case Arrival::Kind::kTrajectory:
              Route(std::move(arrival), now);
              break;
            case Arrival::Kind::kQuarantine:
              QuarantineFeed(arrival.feed, std::move(arrival.reason));
              break;
            case Arrival::Kind::kInputFault:
              EndInputAtFault(arrival.feed, std::move(arrival.reason));
              break;
          }
        }
        break;
      case QueuePop::kTimeout:
        break;
      case QueuePop::kClosed:
        input_done = true;
        break;
    }
    if (!aborted_ && !stopping_) ProcessDueDeadlines(now);
    MaybeCheckpoint(now);
    MaybePublishSnapshot(now);
  }

  // Ingress finished: flush every session's trailing partial window, then
  // drain the backlog and the in-flight jobs to zero. A stop_when_exhausted
  // trip skips the flush — the run ends at the refusal.
  if (!aborted_ && !stopping_) {
    const SteadyClock::time_point now = SteadyClock::now();
    for (const auto& name : feed_order_) {
      FeedSlot& slot = feeds_.at(name);
      if (slot.session && !slot.quarantined &&
          slot.session->uncovered() > 0) {
        // A final-flush closure failure (duplicate object id in the
        // trailing partial window) quarantines that feed; the siblings
        // still drain and publish.
        (void)CloseSessionWindow(name, slot, WindowClose::kFinal, now);
      }
    }
  }
  SubmitReady();
  while (in_flight_ > 0) {
    std::optional<std::unique_ptr<Completion>> completion =
        completions_->Pop();
    if (!completion.has_value()) break;  // defensive; queue is not closed
    AbsorbCompletion(std::move(*completion));
    FlushPublishes();
    SubmitReady();
    MaybePublishSnapshot(SteadyClock::now());
  }
  pool_->WaitIdle();
  completions_->Close();
  // Clean-shutdown snapshot: the final generations/window counters become
  // durable even when the tail had no publish to ride on. After an abort
  // the attempt is still made (recording MORE spend is always safe), but
  // its failure cannot mask the original error.
  if (store_.has_value()) {
    if (Status st = WriteCheckpointNow(); !st.ok() && !aborted_) Abort(st);
  }
  // The final tick: everything is quiesced, so the snapshot it publishes —
  // and with it every telemetry surface — agrees with the final report
  // bit for bit.
  final_tick_ = true;
  PublishSnapshot(SteadyClock::now());
  BuildFinalReport();
  report_.wall_seconds = wall.ElapsedSeconds();
}

}  // namespace frt
