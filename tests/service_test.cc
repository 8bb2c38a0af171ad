// Unit and end-to-end coverage of the multi-feed serving layer
// (src/service): routing and per-feed window order, count/deadline/final
// closure, idle eviction with budget carry, abort paths, and determinism
// across pool sizes.

#include "service/dispatcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/feed_ingest.h"
#include "stream/ingest.h"
#include "testing_util.h"

namespace frt {
namespace {

using frt::testing::ServiceCapture;
using frt::testing::SyntheticCsv;
using std::chrono::milliseconds;

constexpr uint64_t kSeed = 20260730;

ServiceConfig SmallServiceConfig(size_t window) {
  ServiceConfig config;
  config.stream.window_size = window;
  config.stream.batch.shards = 2;
  config.stream.batch.pipeline.m = 3;
  config.stream.batch.pipeline.epsilon_global = 0.5;
  config.stream.batch.pipeline.epsilon_local = 0.5;
  config.pool_threads = 2;
  return config;
}

/// Parses the deterministic synthetic CSV into ready-to-offer
/// trajectories.
std::vector<Trajectory> SyntheticTrajectories(int arrivals) {
  std::istringstream in(SyntheticCsv(arrivals));
  std::vector<Trajectory> out;
  TrajectoryReader reader(in);
  for (;;) {
    auto next = reader.Next();
    EXPECT_TRUE(next.ok());
    if (!next->has_value()) break;
    out.push_back(std::move(**next));
  }
  return out;
}

TEST(ServiceTest, MultiplexedFeedsPublishEveryWindowPerFeedInOrder) {
  const std::vector<std::string> feed_names = {"alpha", "beta", "gamma",
                                               "delta"};
  const std::vector<Trajectory> trajs = SyntheticTrajectories(60);
  ServiceCapture capture;
  ServiceDispatcher service(SmallServiceConfig(20), capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  // Round-robin interleave: every feed receives the same 60 arrivals.
  for (const Trajectory& t : trajs) {
    for (const auto& feed : feed_names) {
      ASSERT_TRUE(service.Offer(feed, t));
    }
  }
  ASSERT_TRUE(service.Finish().ok());

  const ServiceReport& report = service.report();
  EXPECT_EQ(report.feeds, 4u);
  EXPECT_EQ(report.sessions_created, 4u);
  EXPECT_EQ(report.peak_active_sessions, 4u);
  EXPECT_EQ(report.sessions_evicted, 0u);
  EXPECT_EQ(report.windows_published, 12u);  // 3 per feed
  EXPECT_EQ(report.windows_refused, 0u);
  EXPECT_EQ(report.trajectories_in, 240u);
  EXPECT_EQ(report.trajectories_published, 240u);
  ASSERT_EQ(report.feeds_report.size(), 4u);
  for (const FeedReport& feed : report.feeds_report) {
    EXPECT_EQ(feed.sessions, 1u);
    EXPECT_EQ(feed.stream.windows_published, 3u);
    EXPECT_EQ(feed.stream.trajectories_published, 60u);
    // Per-feed latency detail mirrors the service-wide fields: ordered
    // quantiles, and no feed's max can exceed the service-wide max.
    EXPECT_GT(feed.close_wait_max_ms, 0.0);
    EXPECT_GT(feed.publish_max_ms, 0.0);
    EXPECT_LE(feed.close_wait_p50_ms, feed.close_wait_p99_ms);
    EXPECT_LE(feed.close_wait_p99_ms, feed.close_wait_max_ms + 1e-9);
    EXPECT_LE(feed.publish_p50_ms, feed.publish_p99_ms);
    EXPECT_LE(feed.publish_p99_ms, feed.publish_max_ms + 1e-9);
    EXPECT_LE(feed.close_wait_max_ms, report.close_wait_max_ms + 1e-9);
    EXPECT_LE(feed.publish_max_ms, report.publish_max_ms + 1e-9);
  }
  for (const auto& feed : feed_names) {
    const ServiceCapture::Feed& captured = capture.feeds.at(feed);
    ASSERT_EQ(captured.ids.size(), 60u) << feed;
    // Per-feed window order: ids concatenate back to arrival order.
    for (int i = 0; i < 60; ++i) EXPECT_EQ(captured.ids[i], i) << feed;
    ASSERT_EQ(captured.reports.size(), 3u);
    for (size_t w = 0; w < 3; ++w) {
      EXPECT_EQ(captured.reports[w].index, w) << feed;
      EXPECT_EQ(captured.reports[w].close_reason, WindowClose::kCount);
      EXPECT_NEAR(captured.reports[w].epsilon_spent, 1.0, 1e-9);
    }
  }
}

TEST(ServiceTest, DeterministicAcrossPoolSizes) {
  // Sharded window jobs fan their shards and audit out over the shared
  // pool; output must not depend on how many workers pick them up.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(40);
  auto run = [&](unsigned pool_threads, int shards) {
    auto capture = std::make_unique<ServiceCapture>();
    ServiceConfig config = SmallServiceConfig(10);
    config.pool_threads = pool_threads;
    config.stream.batch.shards = shards;
    config.stream.batch.audit.enabled = true;
    ServiceDispatcher service(config, capture->MakeSink());
    EXPECT_TRUE(service.Start(kSeed).ok());
    for (const Trajectory& t : trajs) {
      for (const char* feed : {"f1", "f2", "f3"}) {
        EXPECT_TRUE(service.Offer(feed, t));
      }
    }
    EXPECT_TRUE(service.Finish().ok());
    return capture;
  };
  for (const int shards : {2, 4}) {
    const auto base = run(1, shards);
    for (const unsigned pool : {2u, 4u}) {
      const auto other = run(pool, shards);
      for (const char* feed : {"f1", "f2", "f3"}) {
        EXPECT_TRUE(ServiceCapture::FeedsEqual(base->feeds.at(feed),
                                               other->feeds.at(feed)))
            << "feed " << feed << " differs at pool=" << pool
            << ", shards=" << shards;
        const auto& base_reports = base->feeds.at(feed).reports;
        const auto& other_reports = other->feeds.at(feed).reports;
        ASSERT_EQ(base_reports.size(), other_reports.size());
        for (size_t w = 0; w < base_reports.size(); ++w) {
          EXPECT_EQ(base_reports[w].batch.shards_run, shards);
          EXPECT_EQ(base_reports[w].batch.audit.mean_displacement,
                    other_reports[w].batch.audit.mean_displacement);
        }
      }
    }
  }
}

TEST(ServiceTest, DeadlineClosesPartialWindowBeforeInputEnds) {
  // window_size 100 would never fill; the 60 ms deadline must close and
  // publish the 5 buffered arrivals while the service is still running.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(5);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(100);
  config.stream.close_after_ms = 60;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (const Trajectory& t : trajs) ASSERT_TRUE(service.Offer("live", t));
  // The input is NOT finished: the only way this window publishes within
  // 5 s is the deadline timer.
  ASSERT_TRUE(capture.WaitForWindows(1, milliseconds(5000)));
  {
    std::lock_guard<std::mutex> lock(capture.mu);
    const ServiceCapture::Feed& feed = capture.feeds.at("live");
    ASSERT_EQ(feed.reports.size(), 1u);
    EXPECT_EQ(feed.reports[0].close_reason, WindowClose::kDeadline);
    EXPECT_EQ(feed.reports[0].trajectories, 5u);
    // The close honored the SLO: waited at least the armed delay, and not
    // wildly past the deadline.
    EXPECT_GT(feed.reports[0].close_wait_ms, 10.0);
  }
  ASSERT_TRUE(service.Finish().ok());
  EXPECT_EQ(service.report().windows_deadline_closed, 1u);
  EXPECT_EQ(service.report().windows_published, 1u);
}

TEST(ServiceTest, IdleEvictionFlushesSessionAndCarriesBudgetIntoRevival) {
  // Wholesale budget of 1.0 at eps 1.0/window: generation 1 publishes its
  // flushed window and exhausts the budget; the revived generation 2 must
  // inherit that spend and refuse its window.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(6);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(100);
  config.stream.accounting = BudgetAccounting::kWholesale;
  config.stream.total_budget = 1.0;
  config.idle_evict_ms = 50;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.Offer("taxi", trajs[i]));
  // Idle long enough for the eviction sweep to flush and tear down.
  ASSERT_TRUE(capture.WaitForWindows(1, milliseconds(5000)));
  std::this_thread::sleep_for(milliseconds(150));
  // Revive the feed with fresh arrivals.
  for (int i = 3; i < 6; ++i) ASSERT_TRUE(service.Offer("taxi", trajs[i]));
  ASSERT_TRUE(service.Finish().ok());

  const ServiceReport& report = service.report();
  EXPECT_GE(report.sessions_evicted, 1u);
  ASSERT_EQ(report.feeds_report.size(), 1u);
  const FeedReport& feed = report.feeds_report[0];
  EXPECT_GE(feed.sessions, 2u);
  EXPECT_EQ(feed.stream.windows_published, 1u);  // generation 1's flush
  EXPECT_EQ(feed.stream.windows_refused, 1u);    // generation 2, carried
  EXPECT_NEAR(feed.stream.epsilon_spent, 1.0, 1e-9);
  EXPECT_TRUE(ServiceHadRefusals(report));
}

TEST(ServiceTest, WindowIndicesContinueAcrossSessionGenerations) {
  // Generation 1 publishes window 0 (idle-eviction flush); the revived
  // generation 2's window must be index 1, not a second index 0.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(6);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(100);
  config.idle_evict_ms = 50;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(service.Offer("gen", trajs[i]));
  ASSERT_TRUE(capture.WaitForWindows(1, std::chrono::milliseconds(5000)));
  std::this_thread::sleep_for(milliseconds(150));
  for (int i = 3; i < 6; ++i) ASSERT_TRUE(service.Offer("gen", trajs[i]));
  ASSERT_TRUE(service.Finish().ok());
  const ServiceCapture::Feed& feed = capture.feeds.at("gen");
  ASSERT_EQ(feed.reports.size(), 2u);
  EXPECT_EQ(feed.reports[0].index, 0u);
  EXPECT_EQ(feed.reports[1].index, 1u);
  ASSERT_EQ(service.report().feeds_report.size(), 1u);
  EXPECT_GE(service.report().feeds_report[0].sessions, 2u);
}

TEST(ServiceTest, StopWhenExhaustedEndsServiceAtFirstRefusal) {
  // Wholesale budget 1.0 at eps 1.0/window: window 0 publishes, window 1
  // is refused, and the service must then stop ingesting (Offer fails)
  // instead of refusing windows forever.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(60);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(5);
  config.stream.accounting = BudgetAccounting::kWholesale;
  config.stream.total_budget = 1.0;
  config.stream.stop_when_exhausted = true;
  config.arrival_queue_capacity = 4;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  // An effectively endless feed: recycle the 60 ids round after round
  // (window-aligned, so ids stay unique within each window of 5). Only
  // the stop can end this loop early.
  bool stopped = false;
  for (int round = 0; round < 500 && !stopped; ++round) {
    for (const Trajectory& t : trajs) {
      if (!service.Offer("endless", t)) {
        stopped = true;
        break;
      }
    }
  }
  EXPECT_TRUE(stopped) << "service never stopped ingesting";
  ASSERT_TRUE(service.Finish().ok());  // a clean stop, not an error
  const ServiceReport& report = service.report();
  EXPECT_EQ(report.windows_published, 1u);
  EXPECT_GE(report.windows_refused, 1u);
  EXPECT_TRUE(ServiceHadRefusals(report));
}

TEST(ServiceTest, PerFeedBudgetsAreIndependentLedgers) {
  // Both feeds get the same wholesale budget of 2.0; each publishes 2 of
  // its 3 windows — proof the ledger is per feed, not shared.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(30);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(10);
  config.stream.accounting = BudgetAccounting::kWholesale;
  config.stream.total_budget = 2.0;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (const Trajectory& t : trajs) {
    ASSERT_TRUE(service.Offer("a", t));
    ASSERT_TRUE(service.Offer("b", t));
  }
  ASSERT_TRUE(service.Finish().ok());
  for (const FeedReport& feed : service.report().feeds_report) {
    EXPECT_EQ(feed.stream.windows_published, 2u) << feed.feed;
    EXPECT_EQ(feed.stream.windows_refused, 1u) << feed.feed;
    EXPECT_NEAR(feed.stream.epsilon_spent, 2.0, 1e-9) << feed.feed;
  }
}

TEST(ServiceTest, BacklogCapPausesIngressButPublishesEverything) {
  // With the tightest possible caps the dispatcher must repeatedly pause
  // ingress (arrival queue fills, Offer blocks) and still publish every
  // window of every feed in order.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(60);
  ServiceCapture capture;
  ServiceConfig config = SmallServiceConfig(5);
  config.max_in_flight = 1;
  config.max_backlog_windows = 1;
  config.arrival_queue_capacity = 4;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (const Trajectory& t : trajs) {
    ASSERT_TRUE(service.Offer("a", t));
    ASSERT_TRUE(service.Offer("b", t));
  }
  ASSERT_TRUE(service.Finish().ok());
  EXPECT_EQ(service.report().windows_published, 24u);  // 12 per feed
  EXPECT_EQ(service.report().trajectories_published, 120u);
  for (const char* feed : {"a", "b"}) {
    const ServiceCapture::Feed& captured = capture.feeds.at(feed);
    ASSERT_EQ(captured.ids.size(), 60u);
    for (int i = 0; i < 60; ++i) EXPECT_EQ(captured.ids[i], i) << feed;
  }
}

TEST(ServiceTest, DuplicateObjectIdWithinFeedWindowQuarantinesOnlyThatFeed) {
  // A per-feed fault (duplicate id inside one window) must quarantine that
  // feed, not abort the service: Finish() returns OK, the sibling feed
  // publishes everything, and the report names the quarantined feed.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(20);
  ServiceCapture capture;
  ServiceDispatcher service(SmallServiceConfig(10), capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  ASSERT_TRUE(service.Offer("dup", trajs[0]));
  service.Offer("dup", trajs[0]);  // same id, same window -> feed fault
  for (const Trajectory& t : trajs) ASSERT_TRUE(service.Offer("ok", t));
  const Status st = service.Finish();
  EXPECT_TRUE(st.ok()) << st.ToString();

  const ServiceReport& report = service.report();
  EXPECT_EQ(report.feeds_quarantined, 1u);
  bool saw_dup = false;
  bool saw_ok = false;
  for (const FeedReport& feed : report.feeds_report) {
    if (feed.feed == "dup") {
      saw_dup = true;
      EXPECT_TRUE(feed.quarantined);
      EXPECT_FALSE(feed.quarantine_reason.empty());
      EXPECT_EQ(feed.stream.windows_published, 0u);
    } else if (feed.feed == "ok") {
      saw_ok = true;
      EXPECT_FALSE(feed.quarantined);
      EXPECT_EQ(feed.stream.windows_published, 2u);
      EXPECT_EQ(feed.stream.trajectories_published, 20u);
    }
  }
  EXPECT_TRUE(saw_dup);
  EXPECT_TRUE(saw_ok);
  EXPECT_EQ(capture.feeds.at("ok").ids.size(), 20u);
}

TEST(ServiceTest, OfferQuarantineTearsDownFeedAndKeepsSiblingsRunning) {
  // External quarantine (the ingress tier reporting an untrusted stream)
  // rides the arrival queue: everything the feed offered before the
  // quarantine marker is discarded with its backlog, later offers for the
  // feed are dropped, and sibling feeds are untouched.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(20);
  ServiceCapture capture;
  ServiceDispatcher service(SmallServiceConfig(10), capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.Offer("bad", trajs[static_cast<size_t>(i)]));
  }
  ASSERT_TRUE(service.OfferQuarantine("bad", "frame CRC mismatch"));
  for (const Trajectory& t : trajs) ASSERT_TRUE(service.Offer("good", t));
  // Arrivals after the quarantine marker must be ignored, not revive the
  // feed.
  service.Offer("bad", trajs[6]);
  const Status st = service.Finish();
  EXPECT_TRUE(st.ok()) << st.ToString();

  const ServiceReport& report = service.report();
  EXPECT_EQ(report.feeds_quarantined, 1u);
  for (const FeedReport& feed : report.feeds_report) {
    if (feed.feed == "bad") {
      EXPECT_TRUE(feed.quarantined);
      EXPECT_EQ(feed.quarantine_reason, "frame CRC mismatch");
      EXPECT_EQ(feed.stream.windows_published, 0u);
    } else {
      EXPECT_FALSE(feed.quarantined);
    }
  }
  EXPECT_EQ(capture.feeds.count("bad"), 0u);
  EXPECT_EQ(capture.feeds.at("good").ids.size(), 20u);
}

TEST(ServiceTest, SubmitRotationStaysFairAcrossFeeds) {
  // With one worker and one in-flight slot, window submission is the
  // round-robin scan in SubmitReady. No feed may lap the others: at every
  // prefix of the global publish sequence the per-feed publish counts stay
  // within a small constant of each other (a starvation bug — e.g. the
  // scan always restarting at slot 0 — would let one feed publish its
  // whole backlog first).
  const std::vector<std::string> feed_names = {"f0", "f1", "f2", "f3",
                                               "f4", "f5", "f6", "f7"};
  const std::vector<Trajectory> trajs = SyntheticTrajectories(16);
  ServiceConfig config = SmallServiceConfig(4);  // 4 windows per feed
  config.pool_threads = 1;
  config.max_in_flight = 1;
  std::mutex mu;
  std::vector<std::string> publish_sequence;
  ServiceDispatcher service(
      config, [&](const std::string& feed, const Dataset&,
                  const WindowReport&) -> Status {
        std::lock_guard<std::mutex> lock(mu);
        publish_sequence.push_back(feed);
        return Status::OK();
      });
  ASSERT_TRUE(service.Start(kSeed).ok());
  // Interleaved arrivals: every feed's backlog grows in lockstep.
  for (const Trajectory& t : trajs) {
    for (const auto& feed : feed_names) ASSERT_TRUE(service.Offer(feed, t));
  }
  ASSERT_TRUE(service.Finish().ok());
  ASSERT_EQ(publish_sequence.size(), feed_names.size() * 4);
  std::map<std::string, size_t> counts;
  for (const std::string& feed : publish_sequence) {
    ++counts[feed];
    size_t min_count = publish_sequence.size();
    size_t max_count = 0;
    for (const auto& name : feed_names) {
      const auto it = counts.find(name);
      const size_t c = it == counts.end() ? 0 : it->second;
      min_count = std::min(min_count, c);
      max_count = std::max(max_count, c);
    }
    EXPECT_LE(max_count - min_count, 2u)
        << "feed " << feed << " lapped the rotation";
  }
}

TEST(ServiceTest, RotationSurvivesQuarantineCompaction) {
  // Quarantining feeds mid-run dirties the rotation order; the lazy
  // compaction must keep granting to every surviving feed (a stale index
  // or dropped anchor would starve or crash).
  const std::vector<Trajectory> trajs = SyntheticTrajectories(12);
  ServiceConfig config = SmallServiceConfig(4);
  config.pool_threads = 1;
  config.max_in_flight = 1;
  ServiceCapture capture;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (int round = 0; round < 12; ++round) {
    for (int f = 0; f < 6; ++f) {
      ASSERT_TRUE(service.Offer("q" + std::to_string(f),
                                trajs[static_cast<size_t>(round)]));
    }
    if (round == 5) {
      // Knock out half the rotation while backlogs are non-empty.
      ASSERT_TRUE(service.OfferQuarantine("q1", "fault"));
      ASSERT_TRUE(service.OfferQuarantine("q3", "fault"));
      ASSERT_TRUE(service.OfferQuarantine("q5", "fault"));
    }
  }
  ASSERT_TRUE(service.Finish().ok());
  const ServiceReport& report = service.report();
  EXPECT_EQ(report.feeds_quarantined, 3u);
  for (const FeedReport& feed : report.feeds_report) {
    const bool odd = (feed.feed.back() - '0') % 2 == 1;
    EXPECT_EQ(feed.quarantined, odd) << feed.feed;
    if (!odd) {
      // Survivors publish their full stream: 12 arrivals = 3 windows.
      EXPECT_EQ(feed.stream.windows_published, 3u) << feed.feed;
      EXPECT_EQ(feed.stream.trajectories_published, 12u) << feed.feed;
    }
  }
}

TEST(ServiceTest, QuarantineOfUnknownFeedStillCountsInReport) {
  // The ingress tier can quarantine a feed the dispatcher never routed
  // (its very first frame was the corrupt one). The report must still
  // name it so the operator sees why the stream is missing.
  ServiceCapture capture;
  ServiceDispatcher service(SmallServiceConfig(10), capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  ASSERT_TRUE(service.OfferQuarantine("ghost", "first frame corrupt"));
  ASSERT_TRUE(service.Finish().ok());
  const ServiceReport& report = service.report();
  EXPECT_EQ(report.feeds_quarantined, 1u);
  ASSERT_EQ(report.feeds_report.size(), 1u);
  EXPECT_EQ(report.feeds_report[0].feed, "ghost");
  EXPECT_TRUE(report.feeds_report[0].quarantined);
}

TEST(ServiceTest, MultiFeedParseErrorQuarantinesEveryFeedOfTheInput) {
  // Two feeds of 12 trajectories in one multi-feed CSV, then a malformed
  // line. With window 5 each feed closes two count windows; the two
  // uncovered arrivals per feed read before the bad line must never
  // publish as a trailing partial window.
  std::istringstream single(SyntheticCsv(12));
  std::string csv;
  std::string line;
  std::vector<std::string> records;
  while (std::getline(single, line)) {
    if (!line.empty() && line[0] != '#') records.push_back(line);
  }
  for (const char* feed : {"a", "b"}) {
    for (const std::string& record : records) {
      csv += std::string(feed) + "," + record + "\n";
    }
  }
  csv += "a,oops,not,a,row\n";
  std::istringstream in(csv);
  ServiceCapture capture;
  ServiceDispatcher service(SmallServiceConfig(5), capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  const Status ingest = IngestMultiFeedCsv(in, service);
  EXPECT_TRUE(ingest.IsInvalidArgument()) << ingest.ToString();
  ASSERT_TRUE(service.Finish().ok());

  const ServiceReport& report = service.report();
  EXPECT_EQ(report.feeds_quarantined, 2u);
  for (const FeedReport& feed : report.feeds_report) {
    EXPECT_TRUE(feed.quarantined) << feed.feed;
    // Both count windows closed before the bad line, so both publish.
    EXPECT_EQ(feed.stream.windows_published, 2u) << feed.feed;
  }
  for (const auto& [name, feed] : capture.feeds) {
    for (const WindowReport& w : feed.reports) {
      EXPECT_EQ(w.close_reason, WindowClose::kCount) << name;
      EXPECT_EQ(w.trajectories, 5u) << name;
    }
  }
}

TEST(ServiceTest, MultiFeedRowWithInvalidFeedIdIsAMalformedLine) {
  // A feed id that could escape --output-dir (or break the multi-feed row
  // format) never reaches the dispatcher: its row ends the input like any
  // malformed line, and the feeds read before it keep the windows that
  // closed.
  std::istringstream single(SyntheticCsv(12));
  std::string csv;
  std::string line;
  size_t rows = 0;
  while (std::getline(single, line)) {
    if (!line.empty() && line[0] != '#') {
      csv += "ok," + line + "\n";
      ++rows;
    }
  }
  csv += "../x,1,10.0,10.0,1000\n";
  std::istringstream in(csv);
  ServiceCapture capture;
  ServiceDispatcher service(SmallServiceConfig(5), capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  const Status ingest = IngestMultiFeedCsv(in, service);
  EXPECT_TRUE(ingest.IsInvalidArgument()) << ingest.ToString();
  EXPECT_NE(ingest.ToString().find("line " + std::to_string(rows + 1)),
            std::string::npos)
      << ingest.ToString();
  ASSERT_TRUE(service.Finish().ok());
  const ServiceReport& report = service.report();
  ASSERT_EQ(report.feeds_report.size(), 1u);
  EXPECT_EQ(report.feeds_report[0].feed, "ok");
  EXPECT_TRUE(report.feeds_report[0].quarantined);
  EXPECT_EQ(report.feeds_report[0].stream.windows_published, 2u);
}

TEST(ServiceTest, InputFaultPublishesExactlyTheWindowsClosedBeforeIt) {
  // 23 arrivals at window 5 close four count windows before the fault;
  // with one job in flight at a time most of them are still in the
  // backlog when the fault lands. All four publish — bit-identical to a
  // clean run over the first 20 arrivals — and the 3 arrivals after the
  // last closed window are neither published nor charged.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(23);
  ServiceConfig config = SmallServiceConfig(5);
  config.max_in_flight = 1;
  ServiceCapture faulted;
  ServiceDispatcher service(config, faulted.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (const Trajectory& t : trajs) ASSERT_TRUE(service.Offer("a", t));
  ASSERT_TRUE(service.OfferInputFault("a", "line 24: bad record"));
  ASSERT_TRUE(service.Offer("a", trajs.front()));  // refused, not routed
  ASSERT_TRUE(service.Finish().ok());

  ServiceCapture clean;
  ServiceDispatcher reference(config, clean.MakeSink());
  ASSERT_TRUE(reference.Start(kSeed).ok());
  for (size_t i = 0; i < 20; ++i) ASSERT_TRUE(reference.Offer("a", trajs[i]));
  ASSERT_TRUE(reference.Finish().ok());

  const ServiceReport& report = service.report();
  ASSERT_EQ(report.feeds_report.size(), 1u);
  const FeedReport& feed = report.feeds_report[0];
  EXPECT_TRUE(feed.quarantined);
  EXPECT_EQ(feed.quarantine_reason, "line 24: bad record");
  EXPECT_EQ(report.feeds_quarantined, 1u);
  EXPECT_EQ(feed.stream.trajectories_in, 23u);
  EXPECT_EQ(feed.stream.windows_published, 4u);
  EXPECT_EQ(feed.stream.trajectories_published, 20u);
  EXPECT_NEAR(feed.stream.epsilon_spent, 4.0, 1e-9);
  for (const WindowReport& w : faulted.feeds["a"].reports) {
    EXPECT_EQ(w.close_reason, WindowClose::kCount);
  }
  EXPECT_EQ(faulted.feeds["a"].window_ids, clean.feeds["a"].window_ids);
  EXPECT_EQ(faulted.feeds["a"].points, clean.feeds["a"].points);
}

TEST(ServiceTest, StopWhenExhaustedDropsTheWindowsClosedAfterTheRefusal) {
  // Wholesale budget 2.0: windows 0-1 publish, window 2 is refused. The
  // arrival queue and backlog let ingress run far ahead, so windows 3-9
  // may already have closed when window 2 is refused; they are dropped,
  // never admitted (or refused), whatever the timing.
  const std::vector<Trajectory> trajs = SyntheticTrajectories(100);
  ServiceConfig config = SmallServiceConfig(10);
  config.stream.accounting = BudgetAccounting::kWholesale;
  config.stream.total_budget = 2.0;
  config.stream.stop_when_exhausted = true;
  config.arrival_queue_capacity = 100;
  config.max_backlog_windows = 10;
  ServiceCapture capture;
  ServiceDispatcher service(config, capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  for (const Trajectory& t : trajs) {
    if (!service.Offer("a", t)) break;
  }
  ASSERT_TRUE(service.Finish().ok());
  const ServiceReport& report = service.report();
  EXPECT_EQ(report.windows_published, 2u);
  EXPECT_EQ(report.windows_refused, 1u);
  EXPECT_EQ(capture.feeds["a"].ids.size(), 20u);
}

TEST(ServiceTest, SinkErrorAbortsService) {
  const std::vector<Trajectory> trajs = SyntheticTrajectories(30);
  ServiceConfig config = SmallServiceConfig(5);
  ServiceDispatcher service(
      config, [](const std::string&, const Dataset&,
                 const WindowReport&) -> Status {
        return Status::IOError("sink full");
      });
  ASSERT_TRUE(service.Start(kSeed).ok());
  bool offer_failed = false;
  for (int round = 0; round < 200 && !offer_failed; ++round) {
    for (const Trajectory& t : trajs) {
      if (!service.Offer("x" + std::to_string(round), t)) {
        offer_failed = true;  // ingress observed the abort
        break;
      }
    }
  }
  const Status st = service.Finish();
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST(ServiceTest, FinishWithoutArrivalsIsCleanAndEmpty) {
  ServiceCapture capture;
  ServiceDispatcher service(SmallServiceConfig(10), capture.MakeSink());
  ASSERT_TRUE(service.Start(kSeed).ok());
  ASSERT_TRUE(service.Finish().ok());
  EXPECT_EQ(service.report().feeds, 0u);
  EXPECT_EQ(service.report().windows_published, 0u);
}

// ---- Single-feed time-based closure (frt_stream --close-after-ms runs
// the service with one feed; CloseTimerDelay and the WindowAssembler are
// shared with every multi-feed session).

TEST(StreamDeadlineTest, DeadlineClosesPartialWindowOnTrickleFeed) {
  frt::testing::BlockingFeed feed;
  StreamConfig config;
  config.window_size = 100;
  config.close_after_ms = 60;
  config.batch.pipeline.m = 3;
  frt::testing::SinkCapture capture;
  std::atomic<size_t> published{0};
  ServiceSink sink = [&](const std::string& name, const Dataset& d,
                         const WindowReport& w) -> Status {
    Status st = capture.MakeSink()(name, d, w);
    published.fetch_add(1);
    return st;
  };
  frt::testing::SingleFeedRun run;
  std::thread run_thread([&] {
    run = frt::testing::RunSingleFeedService(config, feed.stream(), kSeed,
                                             sink);
    EXPECT_TRUE(run.status.ok()) << run.status.ToString();
  });
  // Two complete trajectories (the second id's first line completes the
  // first), then silence: only the deadline can publish them.
  feed.Append(SyntheticCsv(3));
  const auto start = std::chrono::steady_clock::now();
  while (published.load() == 0 &&
         std::chrono::steady_clock::now() - start < milliseconds(5000)) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_GE(published.load(), 1u) << "deadline closure never fired";
  feed.End();
  run_thread.join();

  const StreamReport& report = run.report;
  EXPECT_EQ(report.trajectories_in, 3u);
  EXPECT_EQ(report.trajectories_published, 3u);
  EXPECT_GE(report.windows_deadline_closed, 1u);
  ASSERT_GE(report.windows.size(), 2u);
  EXPECT_EQ(report.windows.front().close_reason, WindowClose::kDeadline);
  EXPECT_EQ(report.windows.back().close_reason, WindowClose::kFinal);
}

TEST(StreamDeadlineTest, CountClosureStillWinsWhenFeedIsFast) {
  // A fast finite feed with a generous deadline behaves exactly like an
  // untimed feed: every window closes by count (plus the final tail).
  const std::string csv = SyntheticCsv(250);
  std::istringstream in(csv);
  StreamConfig config;
  config.window_size = 100;
  config.close_after_ms = 60000;
  config.batch.pipeline.m = 3;
  frt::testing::SinkCapture capture;
  const frt::testing::SingleFeedRun run = frt::testing::RunSingleFeedService(
      config, in, kSeed, capture.MakeSink());
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  const StreamReport& report = run.report;
  EXPECT_EQ(report.windows_published, 3u);
  EXPECT_EQ(report.windows_deadline_closed, 0u);
  EXPECT_EQ(report.windows[0].close_reason, WindowClose::kCount);
  EXPECT_EQ(report.windows[2].close_reason, WindowClose::kFinal);
  EXPECT_EQ(capture.ids.size(), 250u);
}

}  // namespace
}  // namespace frt
