// Warm-started guide refresh (GuideRefreshMode::kWarm): the equivalence
// suite pinning the PR's core claim — a warm Generate is bit-identical to
// a cold one on the same prediction, for every compressed engine and
// refresh sequence, while the reuse stats track exactly how
// sparse the inter-call delta was.
//
// The workload is a clustered city: several spatially separated pockets of
// demand, far enough apart (relative to velocity * durations) that each
// pocket is its own connected component of the type-pair network. A
// prediction sequence that perturbs one pocket at a time is the serving
// refresher's steady state in miniature — and lets the tests assert exact
// reused/dirty component counts.

#include "core/guide_generator.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/prediction_matrix.h"
#include "spatial/spacetime.h"

namespace ftoa {
namespace {

// 20 cells in a row, 2 units wide each; velocity 1 and durations 3/2 give
// a feasibility reach of ~3 units, so cells more than one apart never
// connect. Each cluster occupies two adjacent cells (a 2-type component
// with cross-cell pairs); clusters sit 4 empty cells apart.
constexpr int kClusterCols[] = {0, 5, 10, 15};
constexpr int kNumClusters = 4;

SpacetimeSpec ClusteredSpec() {
  return SpacetimeSpec(SlotSpec(2.0, 1), GridSpec(40.0, 2.0, 20, 1));
}

GuideOptions WarmOptions(GuideOptions::Engine engine, GuideRefreshMode mode) {
  GuideOptions options;
  options.engine = engine;
  options.refresh_mode = mode;
  options.worker_duration = 3.0;
  options.task_duration = 2.0;
  return options;
}

/// counts[c] = (workers, tasks) of cluster c. Workers go to the cluster's
/// left cell; tasks are split across both cells so the component holds
/// multiple type pairs.
PredictionMatrix MakePrediction(const SpacetimeSpec& st,
                                const std::vector<std::pair<int, int>>& counts) {
  PredictionMatrix prediction(st);
  for (int c = 0; c < kNumClusters; ++c) {
    const TypeId left = st.TypeAt(0, st.grid().CellAt(kClusterCols[c], 0));
    const TypeId right =
        st.TypeAt(0, st.grid().CellAt(kClusterCols[c] + 1, 0));
    const auto [workers, tasks] = counts[static_cast<size_t>(c)];
    prediction.set_workers_at(left, workers);
    prediction.set_tasks_at(left, tasks / 2);
    prediction.set_tasks_at(right, tasks - tasks / 2);
  }
  return prediction;
}

/// The refresher's steady state in miniature: repeats, single-cluster
/// perturbations, and a return to the opening prediction.
std::vector<std::vector<std::pair<int, int>>> PredictionSequence() {
  const std::vector<std::pair<int, int>> base = {
      {4, 3}, {2, 5}, {6, 6}, {3, 2}};
  std::vector<std::vector<std::pair<int, int>>> sequence;
  sequence.push_back(base);
  sequence.push_back(base);  // Identical repeat: everything reusable.
  auto perturb2 = base;
  perturb2[2] = {6, 4};  // Dirty cluster 2 only.
  sequence.push_back(perturb2);
  auto perturb0 = perturb2;
  perturb0[0] = {1, 3};  // Dirty cluster 0 only.
  sequence.push_back(perturb0);
  sequence.push_back(base);  // Two clusters revert at once.
  return sequence;
}

void ExpectGuidesIdentical(const OfflineGuide& warm, const OfflineGuide& cold,
                           const char* context) {
  ASSERT_EQ(warm.num_worker_nodes(), cold.num_worker_nodes()) << context;
  ASSERT_EQ(warm.num_task_nodes(), cold.num_task_nodes()) << context;
  EXPECT_EQ(warm.matched_pairs(), cold.matched_pairs()) << context;
  for (size_t i = 0; i < warm.worker_nodes().size(); ++i) {
    EXPECT_EQ(warm.worker_nodes()[i].type, cold.worker_nodes()[i].type)
        << context << " worker node " << i;
    EXPECT_EQ(warm.worker_nodes()[i].partner, cold.worker_nodes()[i].partner)
        << context << " worker node " << i;
  }
  for (size_t i = 0; i < warm.task_nodes().size(); ++i) {
    EXPECT_EQ(warm.task_nodes()[i].type, cold.task_nodes()[i].type)
        << context << " task node " << i;
    EXPECT_EQ(warm.task_nodes()[i].partner, cold.task_nodes()[i].partner)
        << context << " task node " << i;
  }
}

TEST(GuideWarmRefreshTest, WarmIsBitIdenticalToColdAcrossSequences) {
  const SpacetimeSpec st = ClusteredSpec();
  const auto sequence = PredictionSequence();
  for (const auto engine : {GuideOptions::Engine::kCompressed,
                            GuideOptions::Engine::kCompressedMinCost}) {
    const GuideGenerator warm(1.0,
                              WarmOptions(engine, GuideRefreshMode::kWarm));
    // Reuse must be invariant to the warm generator's history.
    const GuideGenerator cold(1.0,
                              WarmOptions(engine, GuideRefreshMode::kCold));
    for (size_t step = 0; step < sequence.size(); ++step) {
      const PredictionMatrix prediction = MakePrediction(st, sequence[step]);
      const auto warm_guide = warm.Generate(prediction);
      const auto cold_guide = cold.Generate(prediction);
      ASSERT_TRUE(warm_guide.ok()) << warm_guide.status();
      ASSERT_TRUE(cold_guide.ok()) << cold_guide.status();
      const std::string context =
          "engine " + std::to_string(static_cast<int>(engine)) + " step " +
          std::to_string(step);
      ExpectGuidesIdentical(*warm_guide, *cold_guide, context.c_str());
      EXPECT_FALSE(cold.last_refresh_stats().warm) << context;
    }
  }
}

TEST(GuideWarmRefreshTest, ReuseStatsTrackTheDirtyDelta) {
  const SpacetimeSpec st = ClusteredSpec();
  const auto sequence = PredictionSequence();
  const GuideGenerator warm(
      1.0,
      WarmOptions(GuideOptions::Engine::kCompressed, GuideRefreshMode::kWarm));

  // Step 0: first call — nothing cached yet.
  ASSERT_TRUE(warm.Generate(MakePrediction(st, sequence[0])).ok());
  const GuideRefreshStats& first = warm.last_refresh_stats();
  EXPECT_EQ(first.components_total, kNumClusters);
  EXPECT_EQ(first.components_reused, 0);
  EXPECT_EQ(first.components_solved, kNumClusters);
  EXPECT_FALSE(first.warm);

  // Step 1: identical repeat — every component (and pair) reuses.
  ASSERT_TRUE(warm.Generate(MakePrediction(st, sequence[1])).ok());
  const GuideRefreshStats& repeat = warm.last_refresh_stats();
  EXPECT_TRUE(repeat.warm);
  EXPECT_EQ(repeat.components_reused, kNumClusters);
  EXPECT_EQ(repeat.components_solved, 0);
  EXPECT_GT(repeat.pairs_total, 0);
  EXPECT_EQ(repeat.pairs_reused, repeat.pairs_total);

  // Step 2: one cluster perturbed — exactly one dirty component.
  ASSERT_TRUE(warm.Generate(MakePrediction(st, sequence[2])).ok());
  const GuideRefreshStats& delta = warm.last_refresh_stats();
  EXPECT_TRUE(delta.warm);
  EXPECT_EQ(delta.components_reused, kNumClusters - 1);
  EXPECT_EQ(delta.components_solved, 1);
  EXPECT_LT(delta.pairs_reused, delta.pairs_total);

  // Step 4 semantics without step 3: reverting to the *previous* call's
  // prediction is a full re-solve of the changed cluster — the cache
  // holds exactly one generation, not a history.
  ASSERT_TRUE(warm.Generate(MakePrediction(st, sequence[1])).ok());
  EXPECT_EQ(warm.last_refresh_stats().components_solved, 1);
}

TEST(GuideWarmRefreshTest, InvalidateForcesAColdSolve) {
  const SpacetimeSpec st = ClusteredSpec();
  const auto counts = PredictionSequence()[0];
  const GuideGenerator warm(
      1.0,
      WarmOptions(GuideOptions::Engine::kCompressed, GuideRefreshMode::kWarm));
  ASSERT_TRUE(warm.Generate(MakePrediction(st, counts)).ok());
  ASSERT_TRUE(warm.Generate(MakePrediction(st, counts)).ok());
  ASSERT_TRUE(warm.last_refresh_stats().warm);

  warm.InvalidateWarmCache();
  ASSERT_TRUE(warm.Generate(MakePrediction(st, counts)).ok());
  EXPECT_FALSE(warm.last_refresh_stats().warm);
  EXPECT_EQ(warm.last_refresh_stats().components_reused, 0);
  EXPECT_EQ(warm.last_refresh_stats().components_solved, kNumClusters);
}

TEST(GuideWarmRefreshTest, GeometryChangeDropsTheCache) {
  // Same per-cluster counts on a different spacetime: identical content
  // hashes would be stale (costs derive from geometry), so the fingerprint
  // must force a cold solve — and re-arm the cache for the new geometry.
  const SpacetimeSpec st = ClusteredSpec();
  const SpacetimeSpec other(SlotSpec(2.0, 1), GridSpec(60.0, 3.0, 20, 1));
  const auto counts = PredictionSequence()[0];
  const GuideGenerator warm(
      1.0,
      WarmOptions(GuideOptions::Engine::kCompressed, GuideRefreshMode::kWarm));
  ASSERT_TRUE(warm.Generate(MakePrediction(st, counts)).ok());

  ASSERT_TRUE(warm.Generate(MakePrediction(other, counts)).ok());
  EXPECT_FALSE(warm.last_refresh_stats().warm);
  EXPECT_EQ(warm.last_refresh_stats().components_reused, 0);

  ASSERT_TRUE(warm.Generate(MakePrediction(other, counts)).ok());
  EXPECT_TRUE(warm.last_refresh_stats().warm);
}

TEST(GuideWarmRefreshTest, NodeLevelEnginesAlwaysRunCold) {
  const SpacetimeSpec st = ClusteredSpec();
  const auto counts = PredictionSequence()[0];
  for (const auto engine : {GuideOptions::Engine::kFordFulkerson,
                            GuideOptions::Engine::kDinic}) {
    const GuideGenerator warm(
        1.0, WarmOptions(engine, GuideRefreshMode::kWarm));
    const GuideGenerator cold(
        1.0, WarmOptions(engine, GuideRefreshMode::kCold));
    for (int call = 0; call < 2; ++call) {
      const auto warm_guide = warm.Generate(MakePrediction(st, counts));
      const auto cold_guide = cold.Generate(MakePrediction(st, counts));
      ASSERT_TRUE(warm_guide.ok()) << warm_guide.status();
      ASSERT_TRUE(cold_guide.ok()) << cold_guide.status();
      ExpectGuidesIdentical(*warm_guide, *cold_guide, "node-level");
      // No components to reuse: the stats report a cold, empty outcome.
      EXPECT_FALSE(warm.last_refresh_stats().warm);
      EXPECT_EQ(warm.last_refresh_stats().components_total, 0);
    }
  }
}

TEST(GuideWarmRefreshTest, ApproxSamplingComposesWithWarmReuse) {
  // The Bernoulli pair sample is deterministic in enumeration order, so an
  // identical prediction samples identically and the warm cache applies to
  // the sampled network exactly as to the exact one.
  const SpacetimeSpec st = ClusteredSpec();
  const auto sequence = PredictionSequence();
  GuideOptions options = WarmOptions(GuideOptions::Engine::kCompressed,
                                     GuideRefreshMode::kWarm);
  options.approx_sample_rate = 0.6;
  GuideOptions cold_options = options;
  cold_options.refresh_mode = GuideRefreshMode::kCold;
  const GuideGenerator warm(1.0, options);
  const GuideGenerator cold(1.0, cold_options);
  for (size_t step = 0; step < sequence.size(); ++step) {
    const PredictionMatrix prediction = MakePrediction(st, sequence[step]);
    const auto warm_guide = warm.Generate(prediction);
    const auto cold_guide = cold.Generate(prediction);
    ASSERT_TRUE(warm_guide.ok()) << warm_guide.status();
    ASSERT_TRUE(cold_guide.ok()) << cold_guide.status();
    ExpectGuidesIdentical(*warm_guide, *cold_guide,
                          ("approx step " + std::to_string(step)).c_str());
  }
  // The identical repeat at step 1 reused the sampled components.
  ASSERT_TRUE(warm.Generate(MakePrediction(st, sequence.back())).ok());
  ASSERT_TRUE(warm.Generate(MakePrediction(st, sequence.back())).ok());
  EXPECT_TRUE(warm.last_refresh_stats().warm);
}

}  // namespace
}  // namespace ftoa
