// Unit tests for runtime/batch_runner.h: shard semantics, determinism,
// merge order, report aggregation, and parallel-composition accounting.

#include "runtime/batch_runner.h"

#include <gtest/gtest.h>

#include <vector>

#include "synth/workload.h"
#include "testing_util.h"

namespace frt {
namespace {

using frt::testing::DatasetsEqual;
using frt::testing::SmallPipeline;

Dataset SmallFleet(int taxis, uint64_t seed) {
  return frt::testing::TaxiFleet(taxis, /*target_points=*/60,
                                 /*grid_cols_rows=*/12, seed);
}

TEST(BatchRunnerTest, EmptyDatasetIsRejected) {
  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 4;
  BatchRunner runner(config);
  Rng rng(1);
  auto out = runner.Anonymize(Dataset(), rng);
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInvalidArgument());
}

TEST(BatchRunnerTest, SingleShardMatchesForkedSingleShot) {
  // BatchRunner(K=1) must reproduce a plain pipeline run that consumes the
  // first fork of the same master stream.
  const Dataset input = SmallFleet(24, 11);

  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 1;
  BatchRunner runner(config);
  Rng batch_rng(123);
  auto batched = runner.Anonymize(input, batch_rng);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();

  FrequencyRandomizer pipeline(SmallPipeline());
  Rng master(123);
  Rng forked = master.Fork();
  auto single = pipeline.Anonymize(input, forked);
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  EXPECT_TRUE(DatasetsEqual(*batched, *single));
  EXPECT_EQ(runner.report().epsilon_spent, pipeline.report().epsilon_spent);
}

TEST(BatchRunnerTest, ShardedRunEqualsConcatenationOfPerShardRuns) {
  // K shards with the batch runner == running the pipeline by hand on each
  // contiguous partition with the matching forked stream, concatenated.
  const Dataset input = SmallFleet(30, 17);
  const int kShards = 3;

  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = kShards;
  config.threads = 2;
  BatchRunner runner(config);
  Rng batch_rng(99);
  auto batched = runner.Anonymize(input, batch_rng);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();

  Rng master(99);
  const auto plan = PlanShards(input.size(), kShards);
  ASSERT_EQ(plan.size(), static_cast<size_t>(kShards));
  std::vector<Rng> streams;
  for (size_t i = 0; i < plan.size(); ++i) streams.push_back(master.Fork());

  Dataset expected;
  for (size_t i = 0; i < plan.size(); ++i) {
    Dataset shard;
    for (size_t j = plan[i].begin; j < plan[i].end; ++j) {
      ASSERT_TRUE(shard.Add(input[j]).ok());
    }
    FrequencyRandomizer pipeline(SmallPipeline());
    auto out = pipeline.Anonymize(shard, streams[i]);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    for (auto& t : out->mutable_trajectories()) {
      ASSERT_TRUE(expected.Add(std::move(t)).ok());
    }
  }
  EXPECT_TRUE(DatasetsEqual(*batched, expected));
}

TEST(BatchRunnerTest, DeterministicAcrossThreadCounts) {
  // Same seed and shard count => identical output no matter how many
  // worker threads execute the shards.
  const Dataset input = SmallFleet(24, 5);
  auto run = [&](unsigned threads) {
    BatchRunnerConfig config;
    config.pipeline = SmallPipeline();
    config.shards = 4;
    config.threads = threads;
    BatchRunner runner(config);
    Rng rng(2024);
    auto out = runner.Anonymize(input, rng);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return *std::move(out);
  };
  const Dataset base = run(1);
  EXPECT_TRUE(DatasetsEqual(base, run(2)));
  EXPECT_TRUE(DatasetsEqual(base, run(8)));
}

TEST(BatchRunnerTest, PreservesTrajectoryIdsInInputOrder) {
  const Dataset input = SmallFleet(20, 3);
  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 4;
  BatchRunner runner(config);
  Rng rng(7);
  auto out = runner.Anonymize(input, rng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ((*out)[i].id(), input[i].id());
  }
}

TEST(BatchRunnerTest, ParallelCompositionAccounting) {
  // Every shard spends eps_G + eps_L on a disjoint sub-population, so the
  // dataset-level guarantee is the per-shard maximum — identical to the
  // single-shot spend, regardless of K.
  const Dataset input = SmallFleet(24, 29);
  for (const int shards : {1, 2, 4, 8}) {
    BatchRunnerConfig config;
    config.pipeline = SmallPipeline();
    config.shards = shards;
    BatchRunner runner(config);
    Rng rng(31);
    auto out = runner.Anonymize(input, rng);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_DOUBLE_EQ(runner.report().epsilon_spent, 1.0) << shards;
    EXPECT_DOUBLE_EQ(runner.accountant().spent(), 1.0) << shards;
    EXPECT_EQ(runner.accountant().ledger().size(), 1u) << shards;
    ASSERT_EQ(runner.report().per_shard.size(),
              static_cast<size_t>(runner.report().shards_run));
    for (const auto& shard_report : runner.report().per_shard) {
      EXPECT_DOUBLE_EQ(shard_report.epsilon_spent, 1.0);
    }
  }
}

TEST(BatchRunnerTest, ShardCountClampedToDatasetSize) {
  const Dataset input = SmallFleet(6, 13);
  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 64;
  BatchRunner runner(config);
  Rng rng(17);
  auto out = runner.Anonymize(input, rng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(runner.report().shards_run, 6);
  EXPECT_EQ(out->size(), input.size());
}

TEST(BatchRunnerTest, CombinedReportSumsShardEdits) {
  const Dataset input = SmallFleet(24, 41);
  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 3;
  BatchRunner runner(config);
  Rng rng(53);
  auto out = runner.Anonymize(input, rng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const BatchReport& report = runner.report();
  size_t local_ins = 0, local_del = 0, global_ins = 0, global_del = 0;
  size_t candidates = 0;
  for (const auto& r : report.per_shard) {
    local_ins += r.local.edits.insertions;
    local_del += r.local.edits.deletions;
    global_ins += r.global.edits.insertions;
    global_del += r.global.edits.deletions;
    candidates += r.candidate_set_size;
  }
  EXPECT_EQ(report.combined.local.edits.insertions, local_ins);
  EXPECT_EQ(report.combined.local.edits.deletions, local_del);
  EXPECT_EQ(report.combined.global.edits.insertions, global_ins);
  EXPECT_EQ(report.combined.global.edits.deletions, global_del);
  EXPECT_EQ(report.combined.candidate_set_size, candidates);
  EXPECT_GE(report.wall_seconds, 0.0);
}

TEST(BatchRunnerTest, ReportsShardObjectIdsMatchingThePlan) {
  // The per-object streaming accountant charges exactly the ids a window
  // released, so the report must list every input id once, in shard order.
  const Dataset input = SmallFleet(20, 3);
  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 4;
  BatchRunner runner(config);
  Rng rng(7);
  auto out = runner.Anonymize(input, rng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const auto& shard_ids = runner.report().shard_object_ids;
  const auto plan = PlanShards(input.size(), 4);
  ASSERT_EQ(shard_ids.size(), plan.size());
  size_t total = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    ASSERT_EQ(shard_ids[i].size(), plan[i].size());
    for (size_t j = 0; j < shard_ids[i].size(); ++j) {
      EXPECT_EQ(shard_ids[i][j], input[plan[i].begin + j].id());
    }
    total += shard_ids[i].size();
  }
  EXPECT_EQ(total, input.size());
}

TEST(WindowAuditTest, PoolAndSerialRunsReportIdenticalDisplacement) {
  // The audit's ranges fanned out over a pool (one shared index,
  // concurrent readers) and the same ranges run serially must agree bit
  // for bit on every displacement aggregate.
  const Dataset input = SmallFleet(20, 29);
  FrequencyRandomizer pipeline(SmallPipeline());
  Rng rng(7);
  auto published = pipeline.Anonymize(input, rng);
  ASSERT_TRUE(published.ok()) << published.status().ToString();

  WindowAuditConfig config;
  config.enabled = true;
  config.ranges = 4;

  WorkStealingPool pool(4);
  const WindowAuditReport pooled =
      RunWindowAudit(input, *published, config, &pool);
  const WindowAuditReport serial =
      RunWindowAudit(input, *published, config, nullptr);

  ASSERT_TRUE(pooled.ran);
  ASSERT_TRUE(serial.ran);
  EXPECT_EQ(pooled.index_builds, 1);
  EXPECT_EQ(serial.index_builds, 1);
  EXPECT_GT(pooled.points_audited, 0u);
  EXPECT_EQ(pooled.points_audited, serial.points_audited);
  EXPECT_EQ(pooled.mean_displacement, serial.mean_displacement);
  EXPECT_EQ(pooled.max_displacement, serial.max_displacement);
  EXPECT_EQ(pooled.distance_evaluations, serial.distance_evaluations);
}

TEST(WindowAuditTest, DisabledOrEmptyAuditDoesNotRun) {
  const Dataset input = SmallFleet(4, 31);
  WindowAuditConfig config;  // enabled defaults to false
  EXPECT_FALSE(RunWindowAudit(input, input, config, nullptr).ran);
  config.enabled = true;
  EXPECT_FALSE(RunWindowAudit(Dataset(), input, config, nullptr).ran);
  EXPECT_FALSE(RunWindowAudit(input, Dataset(), config, nullptr).ran);
}

TEST(BatchRunnerTest, AuditReportFlowsThroughBatchReport) {
  const Dataset input = SmallFleet(12, 37);
  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 2;
  config.audit.enabled = true;
  BatchRunner runner(config);
  Rng rng(3);
  auto out = runner.Anonymize(input, rng);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(runner.report().audit.ran);
  EXPECT_EQ(runner.report().audit.index_builds, 1);
  EXPECT_GT(runner.report().audit.points_audited, 0u);
}

TEST(BatchRunnerTest, NameReflectsVariantAndShardCount) {
  BatchRunnerConfig config;
  config.pipeline = SmallPipeline();
  config.shards = 8;
  EXPECT_EQ(BatchRunner(config).name(), "GL[batch x8]");
  config.pipeline.epsilon_local = 0.0;
  config.shards = 2;
  EXPECT_EQ(BatchRunner(config).name(), "PureG[batch x2]");
}

}  // namespace
}  // namespace frt
