// Tests for core/modifier: intra-trajectory (Def. 9/10) and
// inter-trajectory (Def. 7/8) modification correctness — the perturbed
// frequency distributions must hold exactly on the modified data, with
// minimal utility loss, under every search strategy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <unordered_set>

#include "common/rng.h"
#include "core/modifier.h"
#include "synth/workload.h"
#include "traj/quantizer.h"

namespace frt {
namespace {

constexpr double kSize = 2000.0;

class IntraModifierTest : public ::testing::TestWithParam<SearchStrategy> {
 protected:
  IntraModifierTest() : quantizer_(BBox::Of({0, 0}, {kSize, kSize}), 11) {}

  Quantizer quantizer_;
};

TEST_P(IntraModifierTest, InsertionRaisesFrequencyExactly) {
  Trajectory t(1);
  for (int i = 0; i < 10; ++i) t.Append(Point{i * 150.0, 0.0}, i * 60);
  quantizer_.RegisterPoint({700, 300});
  const LocationKey q_key = quantizer_.KeyOf({700, 300});

  EditableTrajectory et(t);
  IntraTrajectoryModifier modifier(&quantizer_, GetParam());
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&et, {{q_key, +3}}, &stats).ok());

  const Trajectory out = et.Materialize();
  EXPECT_EQ(out.size(), 13u);
  EXPECT_EQ(ComputePointFrequency(out, quantizer_).at(q_key), 3);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.deletions, 0u);
  // Loss = sum of distances from q=(700,300) to its 3 nearest segments on
  // y=0: the perpendicular hit on [600,750] plus the two clamped endpoint
  // distances.
  const double expected = 300.0 + std::sqrt(300.0 * 300 + 50.0 * 50) +
                          std::sqrt(300.0 * 300 + 100.0 * 100);
  EXPECT_NEAR(stats.utility_loss, expected, 1e-6);
}

TEST_P(IntraModifierTest, DeletionLowersFrequencyExactly) {
  Trajectory t(1);
  t.Append({0, 0}, 0);
  for (int i = 0; i < 4; ++i) t.Append(Point{500, 500}, 60 + i);  // dwell x4
  t.Append({1000, 1000}, 300);
  const LocationKey key = quantizer_.KeyOf({500, 500});

  EditableTrajectory et(t);
  IntraTrajectoryModifier modifier(&quantizer_, GetParam());
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&et, {{key, -2}}, &stats).ok());

  const Trajectory out = et.Materialize();
  EXPECT_EQ(ComputePointFrequency(out, quantizer_).at(key), 2);
  EXPECT_EQ(stats.deletions, 2u);
  // Deleting interior dwell repeats reconnects identical points: zero loss.
  EXPECT_NEAR(stats.utility_loss, 0.0, 1.0);
}

TEST_P(IntraModifierTest, DeleteAllOccurrences) {
  Trajectory t(1);
  t.Append({0, 0}, 0);
  t.Append({500, 500}, 60);
  t.Append({800, 0}, 120);
  t.Append({500, 500}, 180);
  t.Append({1500, 100}, 240);
  const LocationKey key = quantizer_.KeyOf({500, 500});
  EditableTrajectory et(t);
  IntraTrajectoryModifier modifier(&quantizer_, GetParam());
  ModifierStats stats;
  // Request more deletions than occurrences: clamp to "all gone".
  ASSERT_TRUE(modifier.Apply(&et, {{key, -10}}, &stats).ok());
  const Trajectory out = et.Materialize();
  EXPECT_EQ(ComputePointFrequency(out, quantizer_).count(key), 0u);
  EXPECT_EQ(out.size(), 3u);
}

TEST_P(IntraModifierTest, MixedDeltasAllSatisfied) {
  Trajectory t(1);
  for (int i = 0; i < 20; ++i) {
    t.Append(Point{100.0 * (i % 7), 100.0 * (i / 7)}, i * 60);
  }
  quantizer_.RegisterDataset([&] {
    Dataset d;
    (void)d.Add(t);
    return d;
  }());
  const PointFrequency before = ComputePointFrequency(t, quantizer_);
  // Take three existing keys: raise one, lower one, keep one.
  auto it = before.begin();
  const LocationKey raise = (it++)->first;
  const LocationKey lower = (it++)->first;
  FrequencyDelta delta{{raise, +2}, {lower, -1}};

  EditableTrajectory et(t);
  IntraTrajectoryModifier modifier(&quantizer_, GetParam());
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&et, delta, &stats).ok());
  const PointFrequency after =
      ComputePointFrequency(et.Materialize(), quantizer_);
  EXPECT_EQ(after.at(raise), before.at(raise) + 2);
  const int64_t lower_after =
      after.count(lower) > 0 ? after.at(lower) : 0;
  EXPECT_EQ(lower_after, before.at(lower) - 1);
}

TEST_P(IntraModifierTest, InsertionPicksNearestSegment) {
  // One segment is clearly closest to q; the first insertion must use it.
  Trajectory t(1);
  t.Append({0, 0}, 0);
  t.Append({400, 0}, 60);
  t.Append({400, 1000}, 120);
  quantizer_.RegisterPoint({200, 50});
  const LocationKey key = quantizer_.KeyOf({200, 50});
  EditableTrajectory et(t);
  IntraTrajectoryModifier modifier(&quantizer_, GetParam());
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&et, {{key, +1}}, &stats).ok());
  const Trajectory out = et.Materialize();
  ASSERT_EQ(out.size(), 4u);
  // Inserted between (0,0) and (400,0).
  EXPECT_EQ(quantizer_.KeyOf(out[1].p), key);
  EXPECT_NEAR(stats.utility_loss, 50.0, 1.0);
}

TEST_P(IntraModifierTest, TinyTrajectoriesHandled) {
  quantizer_.RegisterPoint({100, 100});
  const LocationKey key = quantizer_.KeyOf({100, 100});
  IntraTrajectoryModifier modifier(&quantizer_, GetParam());
  // Empty trajectory: insertions append.
  EditableTrajectory empty(Trajectory(1));
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&empty, {{key, +2}}, &stats).ok());
  EXPECT_EQ(empty.NumPoints(), 2u);
  // Single point: insertion appends after it.
  Trajectory single(2);
  single.Append({500, 500}, 0);
  EditableTrajectory et(single);
  ASSERT_TRUE(modifier.Apply(&et, {{key, +1}}, &stats).ok());
  EXPECT_EQ(et.NumPoints(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, IntraModifierTest,
    ::testing::Values(SearchStrategy::kLinear, SearchStrategy::kUniformGrid,
                      SearchStrategy::kTopDown, SearchStrategy::kBottomUp,
                      SearchStrategy::kBottomUpDown),
    [](const ::testing::TestParamInfo<SearchStrategy>& info) {
      std::string name(SearchStrategyName(info.param));
      for (char& c : name) {
        if (c == '+') c = 'P';
      }
      return name;
    });

// ---------------- inter-trajectory ----------------

class InterModifierTest : public ::testing::TestWithParam<SearchStrategy> {
 protected:
  InterModifierTest()
      : quantizer_(BBox::Of({0, 0}, {kSize, kSize}), 11),
        grid_(BBox::Of({-10, -10}, {kSize + 10, kSize + 10}), 10) {}

  // Five horizontal trajectories at different heights; the key point sits
  // at (500, 0) on trajectory 0 only.
  std::vector<EditableTrajectory> MakeWorld() {
    std::vector<EditableTrajectory> world;
    for (int i = 0; i < 5; ++i) {
      Trajectory t(i);
      for (int j = 0; j < 6; ++j) {
        t.Append(Point{j * 300.0, i * 400.0}, j * 60);
      }
      world.emplace_back(t);
    }
    return world;
  }

  TrajectoryFrequency CurrentTf(const std::vector<EditableTrajectory>& w) {
    Dataset d;
    for (const auto& et : w) (void)d.Add(et.Materialize());
    return ComputeTrajectoryFrequency(d, quantizer_);
  }

  Quantizer quantizer_;
  GridSpec grid_;
};

TEST_P(InterModifierTest, TfIncreaseInsertsIntoNearestTrajectories) {
  auto world = MakeWorld();
  quantizer_.RegisterPoint({600, 0});  // an actual point of trajectory 0
  const LocationKey key = quantizer_.KeyOf({600, 0});
  ASSERT_EQ(CurrentTf(world)[key], 1);  // only trajectory 0

  InterTrajectoryModifier modifier(&quantizer_, GetParam(), grid_);
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&world, {{key, +2}}, &stats).ok());
  EXPECT_EQ(CurrentTf(world)[key], 3);
  EXPECT_EQ(stats.insertions, 2u);
  // The nearest non-containing trajectories are rows 1 and 2 (y=400, 800):
  // each insertion costs the vertical distance.
  EXPECT_NEAR(stats.utility_loss, 400.0 + 800.0, 1e-6);
  // Trajectory 0 must not receive a second copy.
  EXPECT_EQ(ComputePointFrequency(world[0].Materialize(), quantizer_)
                .at(key),
            1);
}

TEST_P(InterModifierTest, TfDecreaseDeletesCompletely) {
  auto world = MakeWorld();
  // Plant the key on three trajectories with different deletion costs.
  const Point q{1000, 123};
  quantizer_.RegisterPoint(q);
  const LocationKey key = quantizer_.KeyOf(q);
  // Traj 0: cheap (collinear-ish dwell); traj 1 and 2: offset points.
  {
    auto n = world[0].InsertInto(world[0].Head(), q);
    ASSERT_TRUE(n.ok());
  }
  {
    auto n = world[1].InsertInto(world[1].Head(), q);
    ASSERT_TRUE(n.ok());
    auto n2 = world[2].InsertInto(world[2].Head(), q);
    ASSERT_TRUE(n2.ok());
  }
  ASSERT_EQ(CurrentTf(world)[key], 3);

  InterTrajectoryModifier modifier(&quantizer_, GetParam(), grid_);
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&world, {{key, -2}}, &stats).ok());
  EXPECT_EQ(CurrentTf(world)[key], 1);
  EXPECT_EQ(stats.deletions, 2u);
}

TEST_P(InterModifierTest, MultipleKeysProcessedIndependently) {
  auto world = MakeWorld();
  quantizer_.RegisterPoint({300, 0});
  quantizer_.RegisterPoint({300, 1600});
  const LocationKey a = quantizer_.KeyOf({300, 0});      // on traj 0 only
  const LocationKey b = quantizer_.KeyOf({300, 1600});   // on traj 4 only
  InterTrajectoryModifier modifier(&quantizer_, GetParam(), grid_);
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&world, {{a, +1}, {b, -1}}, &stats).ok());
  const auto tf = CurrentTf(world);
  EXPECT_EQ(tf.at(a), 2);
  EXPECT_EQ(tf.count(b), 0u);
}

TEST_P(InterModifierTest, InsertShortfallWhenAllContainPoint) {
  auto world = MakeWorld();
  // Put the key on every trajectory; then ask for more.
  const Point q{700, 50};
  quantizer_.RegisterPoint(q);
  const LocationKey key = quantizer_.KeyOf(q);
  for (auto& et : world) {
    ASSERT_TRUE(et.InsertInto(et.Head(), q).ok());
  }
  InterTrajectoryModifier modifier(&quantizer_, GetParam(), grid_);
  ModifierStats stats;
  ASSERT_TRUE(modifier.Apply(&world, {{key, +3}}, &stats).ok());
  // No eligible trajectory: TF stays |D| (the Round clamp in Algorithm 1
  // makes this unreachable in the pipeline, but the modifier must be safe).
  EXPECT_EQ(CurrentTf(world)[key], 5);
  EXPECT_EQ(stats.insertions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, InterModifierTest,
    ::testing::Values(SearchStrategy::kLinear, SearchStrategy::kUniformGrid,
                      SearchStrategy::kTopDown, SearchStrategy::kBottomUp,
                      SearchStrategy::kBottomUpDown),
    [](const ::testing::TestParamInfo<SearchStrategy>& info) {
      std::string name(SearchStrategyName(info.param));
      for (char& c : name) {
        if (c == '+') c = 'P';
      }
      return name;
    });

// ---------------- golden output ----------------

// The distance-only checks above cannot see which of several equidistant
// segments received an insertion. This pins the published points of a
// global-then-local modification run bit for bit. The fleet is generated
// on a road network without GPS noise, so trajectories share exact road
// vertices and the kNN searches meet exact distance ties.

uint64_t Fnv1a(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t DigestOf(const std::vector<EditableTrajectory>& trajs) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const EditableTrajectory& et : trajs) {
    const Trajectory t = et.Materialize();
    h = Fnv1a(h, static_cast<uint64_t>(t.id()));
    h = Fnv1a(h, t.size());
    for (const TimedPoint& tp : t.points()) {
      uint64_t x = 0;
      uint64_t y = 0;
      std::memcpy(&x, &tp.p.x, sizeof(x));
      std::memcpy(&y, &tp.p.y, sizeof(y));
      h = Fnv1a(Fnv1a(Fnv1a(h, x), y), static_cast<uint64_t>(tp.t));
    }
  }
  return h;
}

std::vector<LocationKey> SortedKeys(
    const std::unordered_map<LocationKey, int64_t>& freq) {
  std::vector<LocationKey> keys;
  keys.reserve(freq.size());
  for (const auto& [key, f] : freq) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

struct GoldenCase {
  SearchStrategy strategy;
  uint64_t digest;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << SearchStrategyName(c.strategy);
}

class GoldenModifierTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenModifierTest, GlobalThenLocalOutputIsPinned) {
  WorkloadConfig workload_config;
  workload_config.num_taxis = 60;
  workload_config.target_points = 80;
  workload_config.drive_noise = 0.0;
  workload_config.dwell_noise = 0.0;
  RoadGenConfig road_config;
  road_config.cols = 12;
  road_config.rows = 12;
  auto workload = GenerateTaxiWorkload(workload_config, road_config, 1313);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const Dataset& dataset = workload->dataset;

  Quantizer quantizer(dataset.Bounds(), 11);
  quantizer.RegisterDataset(dataset);
  BBox region = dataset.Bounds();
  region.min_x -= 10.0;
  region.min_y -= 10.0;
  region.max_x += 10.0;
  region.max_y += 10.0;
  const GridSpec grid(region, 10);

  std::vector<EditableTrajectory> trajs;
  for (const Trajectory& t : dataset.trajectories()) trajs.emplace_back(t);

  // Global stage: a deterministic TF delta over every location, clamped
  // to [0, |D|].
  Rng rng(99);
  const TrajectoryFrequency tf =
      ComputeTrajectoryFrequency(dataset, quantizer);
  const std::vector<LocationKey> tf_keys = SortedKeys(tf);
  const int64_t n = static_cast<int64_t>(dataset.size());
  FrequencyDelta global_delta;
  for (const LocationKey key : tf_keys) {
    const int64_t l = tf.at(key);
    const int64_t target =
        std::clamp<int64_t>(l + rng.UniformInt(-2, 4), 0, n);
    if (target != l) global_delta[key] = target - l;
  }
  ModifierStats global_stats;
  InterTrajectoryModifier inter(&quantizer, GetParam().strategy, grid);
  ASSERT_TRUE(inter.Apply(&trajs, global_delta, &global_stats).ok());
  EXPECT_GT(global_stats.insertions, 0u);
  EXPECT_GT(global_stats.deletions, 0u);

  // Local stage: per trajectory, perturb a few of its own locations and
  // add a few foreign ones.
  ModifierStats local_stats;
  IntraTrajectoryModifier intra(&quantizer, GetParam().strategy);
  for (EditableTrajectory& et : trajs) {
    const PointFrequency pf =
        ComputePointFrequency(et.Materialize(), quantizer);
    const std::vector<LocationKey> own = SortedKeys(pf);
    FrequencyDelta delta;
    for (int i = 0; i < 4 && !own.empty(); ++i) {
      const LocationKey key = own[rng.UniformInt(uint64_t{own.size()})];
      delta[key] = std::max<int64_t>(pf.at(key) + rng.UniformInt(-2, 3), 0) -
                   pf.at(key);
    }
    for (int i = 0; i < 2; ++i) {
      const LocationKey key =
          tf_keys[rng.UniformInt(uint64_t{tf_keys.size()})];
      if (pf.count(key) == 0) delta[key] = rng.UniformInt(1, 3);
    }
    for (auto it = delta.begin(); it != delta.end();) {
      it = it->second == 0 ? delta.erase(it) : std::next(it);
    }
    ASSERT_TRUE(intra.Apply(&et, delta, &local_stats).ok());
  }
  EXPECT_GT(local_stats.insertions, 0u);
  EXPECT_GT(local_stats.deletions, 0u);

  EXPECT_EQ(DigestOf(trajs), GetParam().digest)
      << std::hex << "0x" << DigestOf(trajs);
}

INSTANTIATE_TEST_SUITE_P(
    HgSearch, GoldenModifierTest,
    ::testing::Values(GoldenCase{SearchStrategy::kBottomUpDown,
                                 0x884cfbd14fcb2d78ULL},
                      GoldenCase{SearchStrategy::kTopDown,
                                 0xd61e6c370d04d47aULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      std::string name(SearchStrategyName(info.param.strategy));
      for (char& c : name) {
        if (c == '+') c = 'P';
      }
      return name;
    });

}  // namespace
}  // namespace frt
