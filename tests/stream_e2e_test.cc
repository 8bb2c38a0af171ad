// Fixed-seed end-to-end regression of the single-feed service (frt_stream's
// engine: one feed through the ServiceDispatcher) over a 10k-trajectory
// synthetic feed. Locks the acceptance behavior: the concatenation of
// published windows preserves the input trajectory count and order, the
// cross-window ledger composes sequentially and refuses windows once
// --budget is exhausted, and the whole run is deterministic across pool
// sizes and repeats.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "service/feed_ingest.h"
#include "testing_util.h"

namespace frt {
namespace {

using frt::testing::RunSingleFeedService;
using frt::testing::SingleFeedRun;
using frt::testing::SinkCapture;
using frt::testing::SyntheticCsv;

constexpr uint64_t kSeed = 20260730;

StreamConfig SmallConfig(size_t window, double budget) {
  StreamConfig config;
  config.window_size = window;
  config.total_budget = budget;
  config.batch.shards = 4;
  config.batch.pipeline.m = 3;
  config.batch.pipeline.epsilon_global = 0.5;
  config.batch.pipeline.epsilon_local = 0.5;
  return config;
}

TEST(StreamE2ETest, TenThousandTrajectoriesWindowed) {
  const int kTrajectories = 10000;
  const std::string csv = SyntheticCsv(kTrajectories);
  std::istringstream in(csv);
  SinkCapture capture;
  const SingleFeedRun run = RunSingleFeedService(SmallConfig(1000, 0.0), in,
                                                 kSeed, capture.MakeSink());
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();

  // Concatenated output matches the input trajectory count, in order.
  const StreamReport& report = run.report;
  EXPECT_EQ(report.trajectories_in, static_cast<size_t>(kTrajectories));
  EXPECT_EQ(report.trajectories_published, static_cast<size_t>(kTrajectories));
  EXPECT_EQ(report.windows_published, 10u);
  EXPECT_EQ(report.windows_refused, 0u);
  ASSERT_EQ(capture.ids.size(), static_cast<size_t>(kTrajectories));
  for (int i = 0; i < kTrajectories; ++i) {
    EXPECT_EQ(capture.ids[i], i);
  }
  // At this seed no trajectory is emptied by the deletion mechanism, so
  // the CSV concatenation of the published windows also carries all 10k.
  size_t emptied = 0;
  for (const auto& points : capture.points) {
    if (points.empty()) ++emptied;
  }
  EXPECT_EQ(emptied, 0u);

  // The ledger sums eps_G + eps_L per window, sequentially.
  EXPECT_NEAR(report.epsilon_spent, 10.0, 1e-9);
  ASSERT_NE(run.session, nullptr);
  EXPECT_EQ(run.session->accountant().ledger().size(), 10u);
  ASSERT_EQ(report.windows.size(), 10u);
  for (const auto& w : report.windows) {
    EXPECT_NEAR(w.epsilon_spent, 1.0, 1e-9);
    EXPECT_EQ(w.trajectories, 1000u);
    EXPECT_EQ(w.batch.shards_run, 4);
  }
}

TEST(StreamE2ETest, BudgetExhaustionRefusesLaterWindows) {
  // 5 windows of eps 1.0 against a total budget of 2.5: windows 0 and 1
  // publish, windows 2..4 are refused and never reach the sink.
  const std::string csv = SyntheticCsv(500);
  std::istringstream in(csv);
  SinkCapture capture;
  const SingleFeedRun run = RunSingleFeedService(SmallConfig(100, 2.5), in,
                                                 kSeed, capture.MakeSink());
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();

  const StreamReport& report = run.report;
  EXPECT_EQ(report.windows_closed, 5u);
  EXPECT_EQ(report.windows_published, 2u);
  EXPECT_EQ(report.windows_refused, 3u);
  EXPECT_EQ(report.trajectories_published, 200u);
  EXPECT_EQ(report.trajectories_refused, 300u);
  EXPECT_NEAR(report.epsilon_spent, 2.0, 1e-9);
  ASSERT_NE(run.session, nullptr);
  EXPECT_NEAR(run.session->accountant().remaining(), 0.5, 1e-9);
  // Only the first two windows' trajectories were published.
  ASSERT_EQ(capture.ids.size(), 200u);
  EXPECT_EQ(capture.ids.front(), 0);
  EXPECT_EQ(capture.ids.back(), 199);
  // Even the whole input was still drained (the service keeps consuming).
  EXPECT_EQ(report.trajectories_in, 500u);
}

TEST(StreamE2ETest, StopWhenExhaustedEndsRunAtFirstRefusal) {
  // With stop_when_exhausted the run terminates at the first refused
  // window instead of draining the feed — the termination path a
  // never-ending feed needs.
  const std::string csv = SyntheticCsv(500);
  std::istringstream in(csv);
  StreamConfig config = SmallConfig(100, 2.5);
  config.stop_when_exhausted = true;
  SinkCapture capture;
  const SingleFeedRun run =
      RunSingleFeedService(config, in, kSeed, capture.MakeSink());
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  const StreamReport& report = run.report;
  EXPECT_EQ(report.windows_published, 2u);
  EXPECT_EQ(report.windows_refused, 1u);  // the refusal that stopped the run
  EXPECT_EQ(capture.ids.size(), 200u);
  // The tail of the feed was never pulled through the pipeline.
  EXPECT_LT(report.trajectories_in, 500u);
}

TEST(StreamE2ETest, ExactBudgetPublishesEveryWindow) {
  const std::string csv = SyntheticCsv(300);
  std::istringstream in(csv);
  SinkCapture capture;
  const SingleFeedRun run = RunSingleFeedService(SmallConfig(100, 3.0), in,
                                                 kSeed, capture.MakeSink());
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.report.windows_published, 3u);
  EXPECT_EQ(run.report.windows_refused, 0u);
  ASSERT_NE(run.session, nullptr);
  EXPECT_NEAR(run.session->accountant().remaining(), 0.0, 1e-9);
}

TEST(StreamE2ETest, DeterministicAcrossThreadCountsAndRepeats) {
  const std::string csv = SyntheticCsv(400);
  auto run = [&](unsigned pool_threads) {
    std::istringstream in(csv);
    SinkCapture capture;
    const SingleFeedRun result = RunSingleFeedService(
        SmallConfig(100, 0.0), in, kSeed, capture.MakeSink(), pool_threads);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    return capture;
  };
  const SinkCapture base = run(1);
  ASSERT_EQ(base.ids.size(), 400u);
  for (const unsigned pool_threads : {1u, 4u, 8u}) {
    const SinkCapture other = run(pool_threads);
    ASSERT_EQ(other.ids.size(), base.ids.size()) << "pool " << pool_threads;
    EXPECT_EQ(other.ids, base.ids) << "pool " << pool_threads;
    EXPECT_EQ(other.points, base.points) << "pool " << pool_threads;
  }
}

TEST(StreamE2ETest, FinalPartialWindowIsPublished) {
  const std::string csv = SyntheticCsv(250);
  std::istringstream in(csv);
  SinkCapture capture;
  const SingleFeedRun run = RunSingleFeedService(SmallConfig(100, 0.0), in,
                                                 kSeed, capture.MakeSink());
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  const StreamReport& report = run.report;
  EXPECT_EQ(report.windows_published, 3u);
  ASSERT_EQ(report.windows.size(), 3u);
  EXPECT_EQ(report.windows[0].trajectories, 100u);
  EXPECT_EQ(report.windows[1].trajectories, 100u);
  EXPECT_EQ(report.windows[2].trajectories, 50u);
  EXPECT_EQ(capture.ids.size(), 250u);
}

TEST(StreamE2ETest, ParseErrorFailsRunWithoutPublishingPartialWindow) {
  // A malformed line mid-stream fails the run; the trailing partial window
  // assembled before the bad line must be neither published nor charged to
  // the ledger (complete windows closed earlier stay published). The
  // reader ends the feed's input at the fault, which drops its uncovered
  // arrivals and reports the feed as quarantined.
  std::string csv = SyntheticCsv(150);
  csv += "151,not_a_number,2.0,3\n";
  std::istringstream in(csv);
  SinkCapture capture;
  const SingleFeedRun run = RunSingleFeedService(SmallConfig(100, 0.0), in,
                                                 kSeed, capture.MakeSink());
  EXPECT_FALSE(run.status.ok());
  EXPECT_TRUE(run.status.IsInvalidArgument()) << run.status.ToString();
  EXPECT_EQ(run.report.windows_published, 1u);
  EXPECT_EQ(capture.ids.size(), 100u);
  // The wholesale ledger (tracked in every mode) holds window 0 only.
  EXPECT_NEAR(run.report.epsilon_wholesale_equivalent, 1.0, 1e-9);
  EXPECT_NEAR(run.report.epsilon_spent, 1.0, 1e-9);
  EXPECT_EQ(run.service->report().feeds_quarantined, 1u);
}

TEST(StreamE2ETest, DuplicateIdWithinWindowIsRejected) {
  std::istringstream in(
      "5,1.0,2.0,1\n5,2.0,3.0,2\n6,4.0,5.0,3\n5,6.0,7.0,4\n");
  SinkCapture capture;
  const SingleFeedRun run = RunSingleFeedService(SmallConfig(10, 0.0), in,
                                                 kSeed, capture.MakeSink());
  EXPECT_FALSE(run.status.ok());
  EXPECT_TRUE(run.status.IsInvalidArgument()) << run.status.ToString();
  EXPECT_EQ(capture.windows, 0u);
}

}  // namespace
}  // namespace frt
