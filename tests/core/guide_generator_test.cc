#include "core/guide_generator.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "gen/synthetic.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftoa {
namespace {

using ftoa::testing::MakeExample1Instance;

GuideOptions Example1Options(GuideOptions::Engine engine) {
  GuideOptions options;
  options.engine = engine;
  options.worker_duration = 30.0;
  options.task_duration = 2.0;
  return options;
}

TEST(GuideGeneratorTest, Example1PerfectPredictionMatchesSix) {
  // With the true per-type counts of Example 1, the maximum bipartite
  // matching over predicted nodes has cardinality 6 (all tasks served):
  // two top-left slot-0 tasks from the three top-left workers, four
  // bottom-right slot-1 tasks from the four top-right workers.
  const Instance instance = MakeExample1Instance();
  const PredictionMatrix prediction =
      PredictionMatrix::FromInstance(instance);
  for (const auto engine :
       {GuideOptions::Engine::kFordFulkerson, GuideOptions::Engine::kDinic,
        GuideOptions::Engine::kCompressed,
        GuideOptions::Engine::kCompressedMinCost}) {
    const GuideGenerator generator(instance.velocity(),
                                   Example1Options(engine));
    const auto guide = generator.Generate(prediction);
    ASSERT_TRUE(guide.ok());
    EXPECT_EQ(guide->matched_pairs(), 6) << "engine " << static_cast<int>(
        engine);
    EXPECT_EQ(guide->num_worker_nodes(), 7);
    EXPECT_EQ(guide->num_task_nodes(), 6);
    EXPECT_TRUE(guide->Validate().ok());
  }
}

TEST(GuideGeneratorTest, FeasibleTypePairsRespectDeadlines) {
  const Instance instance = MakeExample1Instance();
  const PredictionMatrix prediction =
      PredictionMatrix::FromInstance(instance);
  const GuideGenerator generator(
      instance.velocity(),
      Example1Options(GuideOptions::Engine::kDinic));
  const SpacetimeSpec& st = instance.spacetime();
  const std::vector<TypePairEdge>& pairs =
      generator.FeasibleTypePairs(prediction);
  for (const auto& [wt, tt] : pairs) {
    EXPECT_TRUE(CanServeAttrs(
        st.RepresentativeLocation(wt), st.RepresentativeTime(wt), 30.0,
        st.RepresentativeLocation(tt), st.RepresentativeTime(tt), 2.0,
        instance.velocity(), FeasibilityPolicy::kDispatchAtWorkerStart));
  }
  EXPECT_FALSE(pairs.empty());
}

TEST(GuideGeneratorTest, EstimateCountsNodeLevelEdges) {
  const Instance instance = MakeExample1Instance();
  const PredictionMatrix prediction =
      PredictionMatrix::FromInstance(instance);
  const GuideGenerator generator(
      instance.velocity(),
      Example1Options(GuideOptions::Engine::kDinic));
  int64_t expected = 0;
  for (const auto& [wt, tt] : generator.FeasibleTypePairs(prediction)) {
    expected += static_cast<int64_t>(prediction.workers_at(wt)) *
                prediction.tasks_at(tt);
  }
  EXPECT_EQ(generator.EstimateNodeLevelEdges(prediction), expected);
}

TEST(GuideGeneratorTest, FeasibilityBoxIsExactForWorkersNearOrigin) {
  // Exactness guard for the disk bounding box where it is most fragile:
  // a worker in the origin cell, whose (wloc - radius) goes negative (the
  // regime where int-cast truncation and floor semantics diverge and only
  // the clamp keeps them aligned). The box scan must report exactly the
  // pairs the brute-force midpoint test admits.
  const GridSpec grid(6.0, 6.0, 6, 6);
  const SlotSpec slots(4.0, 4);
  const SpacetimeSpec st(slots, grid);
  const double velocity = 1.0;
  const double dw = 2.0;
  const double dr = 1.5;

  PredictionMatrix prediction(st);
  // One worker type in the origin cell; its feasibility disk pokes past
  // the region's lower-left corner.
  prediction.set_workers_at(st.TypeAt(1, grid.CellAt(0, 0)), 3);
  // Tasks scattered over enough cells that the box scan (not the sparse
  // fallback) is selected for the small disk.
  const int task_cells[][2] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 0},
                               {0, 2}, {3, 3}, {5, 5}, {4, 1}, {1, 4}};
  for (const auto& cell : task_cells) {
    prediction.set_tasks_at(
        st.TypeAt(1, grid.CellAt(cell[0], cell[1])), 2);
  }

  GuideOptions options;
  options.engine = GuideOptions::Engine::kCompressed;
  options.worker_duration = dw;
  options.task_duration = dr;
  const GuideGenerator generator(velocity, options);

  std::set<std::pair<TypeId, TypeId>> reported;
  for (const auto& [wt, tt] : generator.FeasibleTypePairs(prediction)) {
    reported.insert({wt, tt});
  }

  // Brute force over all type pairs with the generator's own midpoint
  // predicate: sr < sw + dw, slack = dr - (sw - sr) >= 0, and travel time
  // within the slack.
  std::set<std::pair<TypeId, TypeId>> expected;
  for (TypeId wt = 0; wt < st.num_types(); ++wt) {
    if (prediction.workers_at(wt) <= 0) continue;
    const double sw = slots.SlotMidpoint(st.SlotOfType(wt));
    for (TypeId tt = 0; tt < st.num_types(); ++tt) {
      if (prediction.tasks_at(tt) <= 0) continue;
      const double sr = slots.SlotMidpoint(st.SlotOfType(tt));
      if (!(sr < sw + dw)) continue;
      const double slack = dr - (sw - sr);
      if (slack < 0.0) continue;
      const double d = Distance(st.RepresentativeLocation(wt),
                                st.RepresentativeLocation(tt));
      if (d / velocity <= slack) expected.insert({wt, tt});
    }
  }
  EXPECT_EQ(reported, expected);
  EXPECT_FALSE(expected.empty());
}

TEST(GuideGeneratorTest, EmptyPredictionYieldsEmptyGuide) {
  const Instance instance = MakeExample1Instance();
  const PredictionMatrix empty(instance.spacetime());
  const GuideGenerator generator(
      instance.velocity(),
      Example1Options(GuideOptions::Engine::kAuto));
  const auto guide = generator.Generate(empty);
  ASSERT_TRUE(guide.ok());
  EXPECT_EQ(guide->matched_pairs(), 0);
  EXPECT_EQ(guide->num_worker_nodes(), 0);
}

TEST(GuideGeneratorTest, MinCostVariantKeepsMaxCardinality) {
  // Min-cost guide must not sacrifice matching size for cost.
  SyntheticConfig config;
  config.num_workers = 300;
  config.num_tasks = 300;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  config.seed = 5;
  const auto instance = GenerateSyntheticInstance(config);
  ASSERT_TRUE(instance.ok());
  const PredictionMatrix prediction =
      PredictionMatrix::FromInstance(*instance);

  GuideOptions options;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;

  options.engine = GuideOptions::Engine::kCompressed;
  const auto plain = GuideGenerator(config.velocity, options)
                         .Generate(prediction);
  options.engine = GuideOptions::Engine::kCompressedMinCost;
  const auto min_cost = GuideGenerator(config.velocity, options)
                            .Generate(prediction);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(min_cost.ok());
  EXPECT_EQ(plain->matched_pairs(), min_cost->matched_pairs());

  // The min-cost guide's total representative travel time is no larger.
  auto total_cost = [](const OfflineGuide& guide) {
    double cost = 0.0;
    const SpacetimeSpec& st = guide.spacetime();
    for (const GuideNode& node : guide.worker_nodes()) {
      if (node.partner < 0) continue;
      const GuideNode& partner =
          guide.task_nodes()[static_cast<size_t>(node.partner)];
      cost += TravelTime(st.RepresentativeLocation(node.type),
                         st.RepresentativeLocation(partner.type),
                         guide.velocity());
    }
    return cost;
  };
  EXPECT_LE(total_cost(*min_cost), total_cost(*plain) + 1e-6);
}

TEST(GuideGeneratorTest, RepresentativeSlackGrowsTheGuideMonotonically) {
  SyntheticConfig config;
  config.num_workers = 400;
  config.num_tasks = 400;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  config.task_duration = 1.0;  // Tight: slack has something to recover.
  config.seed = 77;
  const auto instance = GenerateSyntheticInstance(config);
  ASSERT_TRUE(instance.ok());
  const PredictionMatrix prediction =
      PredictionMatrix::FromInstance(*instance);

  GuideOptions options;
  options.engine = GuideOptions::Engine::kCompressed;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;

  int64_t previous = -1;
  for (double slack : {0.0, 0.25, 0.5, 1.0}) {
    options.representative_slack = slack;
    const auto guide = GuideGenerator(config.velocity, options)
                           .Generate(prediction);
    ASSERT_TRUE(guide.ok());
    EXPECT_DOUBLE_EQ(guide->representative_slack(), slack);
    // The guide's own validation honors the slack it was built with.
    EXPECT_TRUE(guide->Validate().ok()) << "slack " << slack;
    EXPECT_GE(guide->matched_pairs(), previous) << "slack " << slack;
    previous = guide->matched_pairs();
  }
}

// Property: every engine produces the same matching cardinality, and all
// matched node pairs satisfy type-level feasibility.
class GuideEngineEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GuideEngineEquivalenceTest, EnginesAgreeOnCardinality) {
  SyntheticConfig config;
  Rng rng(GetParam());
  config.num_workers = 100 + static_cast<int>(rng.NextBounded(300));
  config.num_tasks = 100 + static_cast<int>(rng.NextBounded(300));
  config.grid_x = 6 + static_cast<int>(rng.NextBounded(6));
  config.grid_y = 6 + static_cast<int>(rng.NextBounded(6));
  config.num_slots = 4 + static_cast<int>(rng.NextBounded(8));
  config.task_duration = 1.0 + rng.NextDouble() * 2.0;
  config.worker_duration = 1.0 + rng.NextDouble() * 3.0;
  config.seed = GetParam() * 1000 + 17;
  const auto instance = GenerateSyntheticInstance(config);
  ASSERT_TRUE(instance.ok());
  const PredictionMatrix prediction =
      PredictionMatrix::FromInstance(*instance);

  GuideOptions options;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;

  int64_t reference = -1;
  for (const auto engine :
       {GuideOptions::Engine::kFordFulkerson, GuideOptions::Engine::kDinic,
        GuideOptions::Engine::kCompressed,
        GuideOptions::Engine::kCompressedMinCost}) {
    options.engine = engine;
    const GuideGenerator generator(config.velocity, options);
    const auto guide = generator.Generate(prediction);
    ASSERT_TRUE(guide.ok());
    EXPECT_TRUE(guide->Validate().ok());
    if (reference < 0) {
      reference = guide->matched_pairs();
    } else {
      EXPECT_EQ(guide->matched_pairs(), reference)
          << "engine " << static_cast<int>(engine);
    }
  }
  EXPECT_GE(reference, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuideEngineEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(GuideGeneratorTest, ShardedSolveDecomposesDisconnectedRegimes) {
  // With a feasibility disk smaller than one cell, type pairs only form
  // within a cell, so the compressed network must shatter into many
  // components, each solved on its own small network.
  SyntheticConfig config;
  config.num_workers = 2000;
  config.num_tasks = 2000;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  config.velocity = 0.2;
  config.task_duration = 0.5;
  config.worker_duration = 1.0;
  config.seed = 31;
  const auto instance = GenerateSyntheticInstance(config);
  ASSERT_TRUE(instance.ok());
  const PredictionMatrix prediction =
      PredictionMatrix::FromInstance(*instance);

  GuideOptions options;
  options.engine = GuideOptions::Engine::kCompressed;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;
  const GuideGenerator generator(config.velocity, options);
  const auto guide = generator.Generate(prediction);
  ASSERT_TRUE(guide.ok());
  EXPECT_GT(generator.last_num_components(), 4);
  EXPECT_GT(guide->matched_pairs(), 0);
  EXPECT_TRUE(guide->Validate().ok());
}

TEST(GuideGeneratorTest, RepeatedGenerateReusesArenasDeterministically) {
  // One generator instance serves many predictions in a live deployment;
  // the reused solver arenas must not leak state between calls: repeated
  // Generate on the same prediction gives the identical guide.
  SyntheticConfig config;
  config.num_workers = 200;
  config.num_tasks = 200;
  config.grid_x = 8;
  config.grid_y = 8;
  config.num_slots = 6;
  config.seed = 77;
  const auto instance = GenerateSyntheticInstance(config);
  ASSERT_TRUE(instance.ok());
  const PredictionMatrix prediction =
      PredictionMatrix::FromInstance(*instance);
  for (const auto engine : {GuideOptions::Engine::kDinic,
                            GuideOptions::Engine::kCompressed,
                            GuideOptions::Engine::kCompressedMinCost}) {
    GuideOptions options;
    options.engine = engine;
    options.worker_duration = config.worker_duration;
    options.task_duration = config.task_duration;
    const GuideGenerator generator(config.velocity, options);
    const auto first = generator.Generate(prediction);
    ASSERT_TRUE(first.ok());
    for (int repeat = 0; repeat < 2; ++repeat) {
      const auto again = generator.Generate(prediction);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->matched_pairs(), first->matched_pairs())
          << "engine " << static_cast<int>(engine);
      // Pairings themselves must be identical across reuse.
      ASSERT_EQ(again->worker_nodes().size(), first->worker_nodes().size());
      for (size_t node = 0; node < first->worker_nodes().size(); ++node) {
        EXPECT_EQ(again->worker_nodes()[node].partner,
                  first->worker_nodes()[node].partner)
            << "engine " << static_cast<int>(engine) << " node " << node;
      }
    }
  }
}

// --- Approximate-guide mode (GuideOptions::approx_sample_rate) ---

PredictionMatrix ApproxTestPrediction(Instance* instance_out = nullptr) {
  SyntheticConfig config;
  config.num_workers = 300;
  config.num_tasks = 300;
  config.grid_x = 8;
  config.grid_y = 8;
  config.num_slots = 6;
  config.seed = 1234;
  auto instance = GenerateSyntheticInstance(config);
  EXPECT_TRUE(instance.ok());
  if (instance_out != nullptr) *instance_out = *instance;
  return PredictionMatrix::FromInstance(*instance);
}

GuideOptions ApproxTestOptions(double rate) {
  GuideOptions options;
  options.engine = GuideOptions::Engine::kCompressed;
  options.worker_duration = 3.0;
  options.task_duration = 2.0;
  options.approx_sample_rate = rate;
  return options;
}

TEST(GuideGeneratorTest, ApproxRateOneIsTheExactGuide) {
  const PredictionMatrix prediction = ApproxTestPrediction();
  const GuideGenerator exact(2.0, ApproxTestOptions(1.0));
  const auto exact_guide = exact.Generate(prediction);
  ASSERT_TRUE(exact_guide.ok());
  // Rate 1.0 keeps every feasible pair and reports a zero loss bound.
  EXPECT_EQ(exact.last_approx_report().sampled_pairs,
            exact.last_approx_report().feasible_pairs);
  EXPECT_GT(exact.last_approx_report().feasible_pairs, 0);
  EXPECT_EQ(exact.last_approx_report().utility_loss_bound, 0);

  GuideOptions default_options = ApproxTestOptions(1.0);
  default_options.approx_sample_rate = 1.0;
  const GuideGenerator reference(2.0, default_options);
  const auto reference_guide = reference.Generate(prediction);
  ASSERT_TRUE(reference_guide.ok());
  EXPECT_EQ(exact_guide->matched_pairs(), reference_guide->matched_pairs());
  ASSERT_EQ(exact_guide->worker_nodes().size(),
            reference_guide->worker_nodes().size());
  for (size_t node = 0; node < exact_guide->worker_nodes().size(); ++node) {
    EXPECT_EQ(exact_guide->worker_nodes()[node].partner,
              reference_guide->worker_nodes()[node].partner);
  }
}

TEST(GuideGeneratorTest, ApproxRejectsInvalidRatesAndNodeLevelEngines) {
  const PredictionMatrix prediction = ApproxTestPrediction();
  for (const double rate : {0.0, -0.5, 1.5}) {
    const GuideGenerator generator(2.0, ApproxTestOptions(rate));
    const auto guide = generator.Generate(prediction);
    EXPECT_FALSE(guide.ok()) << "rate " << rate;
  }
  // The node-level flow engines build the full bipartite graph; sampling
  // type pairs there has no capacity interpretation, so it is an error.
  for (const auto engine : {GuideOptions::Engine::kFordFulkerson,
                            GuideOptions::Engine::kDinic}) {
    GuideOptions options = ApproxTestOptions(0.5);
    options.engine = engine;
    const GuideGenerator generator(2.0, options);
    const auto guide = generator.Generate(prediction);
    EXPECT_FALSE(guide.ok()) << "engine " << static_cast<int>(engine);
  }
}

TEST(GuideGeneratorTest, ApproxCardinalityLossStaysWithinTheReportedBound) {
  // The certificate the bench reports: the approximate guide's matched
  // utility can trail the exact guide's by at most the summed capacity of
  // the dropped type pairs. Dropping edges can never *grow* a matching,
  // so the gap is also nonnegative.
  const PredictionMatrix prediction = ApproxTestPrediction();
  const GuideGenerator exact(2.0, ApproxTestOptions(1.0));
  const auto exact_guide = exact.Generate(prediction);
  ASSERT_TRUE(exact_guide.ok());
  for (const double rate : {0.25, 0.5, 0.8}) {
    const GuideGenerator approx(2.0, ApproxTestOptions(rate));
    const auto approx_guide = approx.Generate(prediction);
    ASSERT_TRUE(approx_guide.ok()) << "rate " << rate;
    const ApproxGuideReport& report = approx.last_approx_report();
    EXPECT_LT(report.sampled_pairs, report.feasible_pairs) << rate;
    EXPECT_GT(report.utility_loss_bound, 0) << rate;
    const int64_t gap =
        exact_guide->matched_pairs() - approx_guide->matched_pairs();
    EXPECT_GE(gap, 0) << "rate " << rate;
    EXPECT_LE(gap, report.utility_loss_bound) << "rate " << rate;
    EXPECT_TRUE(approx_guide->Validate().ok()) << "rate " << rate;
  }
}

// --- FlowEngine selection inside the min-cost guide ---

double TotalGuideTravel(const OfflineGuide& guide) {
  double cost = 0.0;
  const SpacetimeSpec& st = guide.spacetime();
  for (const GuideNode& node : guide.worker_nodes()) {
    if (node.partner < 0) continue;
    const GuideNode& partner =
        guide.task_nodes()[static_cast<size_t>(node.partner)];
    cost += TravelTime(st.RepresentativeLocation(node.type),
                       st.RepresentativeLocation(partner.type),
                       guide.velocity());
  }
  return cost;
}

// Property: the min-cost guide is engine-equivalent — every FlowEngine
// (and kAuto's per-component choice) yields the same matched cardinality
// and the same total representative travel. Per-edge flow patterns may
// differ between equally cheap optima, so individual pairings may too;
// the (count, cost) pair is the contract.
class GuideFlowEngineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GuideFlowEngineTest, MinCostGuideIsEngineEquivalent) {
  SyntheticConfig config;
  Rng rng(GetParam() * 131 + 7);
  config.num_workers = 150 + static_cast<int>(rng.NextBounded(300));
  config.num_tasks = 150 + static_cast<int>(rng.NextBounded(300));
  config.grid_x = 6 + static_cast<int>(rng.NextBounded(6));
  config.grid_y = 6 + static_cast<int>(rng.NextBounded(6));
  config.num_slots = 4 + static_cast<int>(rng.NextBounded(8));
  config.task_duration = 1.0 + rng.NextDouble() * 2.0;
  config.worker_duration = 1.0 + rng.NextDouble() * 3.0;
  config.seed = GetParam() * 313 + 29;
  const auto instance = GenerateSyntheticInstance(config);
  ASSERT_TRUE(instance.ok());
  const PredictionMatrix prediction =
      PredictionMatrix::FromInstance(*instance);

  GuideOptions options;
  options.engine = GuideOptions::Engine::kCompressedMinCost;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;

  int64_t reference_pairs = -1;
  double reference_travel = 0.0;
  for (const FlowEngine flow_engine :
       {FlowEngine::kSsp, FlowEngine::kBlockingSsp, FlowEngine::kCostScaling,
        FlowEngine::kAuto}) {
    options.flow_engine = flow_engine;
    const GuideGenerator generator(config.velocity, options);
    const auto guide = generator.Generate(prediction);
    ASSERT_TRUE(guide.ok()) << FlowEngineName(flow_engine);
    EXPECT_TRUE(guide->Validate().ok()) << FlowEngineName(flow_engine);
    if (reference_pairs < 0) {
      reference_pairs = guide->matched_pairs();
      reference_travel = TotalGuideTravel(*guide);
    } else {
      EXPECT_EQ(guide->matched_pairs(), reference_pairs)
          << FlowEngineName(flow_engine);
      // Edge costs are travel quantized at 1e-6, so equal integer network
      // cost pins the travel sums within matched * 1e-6.
      EXPECT_NEAR(TotalGuideTravel(*guide), reference_travel,
                  static_cast<double>(reference_pairs + 1) * 1e-6)
          << FlowEngineName(flow_engine);
    }
  }
  EXPECT_GE(reference_pairs, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuideFlowEngineTest,
                         ::testing::Range<uint64_t>(1, 7));

TEST(GuideGeneratorTest, ApproxAutoEngineRoutesToCompressed) {
  const PredictionMatrix prediction = ApproxTestPrediction();
  GuideOptions options = ApproxTestOptions(0.5);
  options.engine = GuideOptions::Engine::kAuto;
  const GuideGenerator generator(2.0, options);
  const auto guide = generator.Generate(prediction);
  ASSERT_TRUE(guide.ok()) << guide.status().ToString();
  EXPECT_GT(generator.last_approx_report().feasible_pairs, 0);
  EXPECT_LT(generator.last_approx_report().sampled_pairs,
            generator.last_approx_report().feasible_pairs);
}

TEST(GuideGeneratorTest, NodeLevelRejectsNetworksOverflowingInt32Arcs) {
  // A 2^14 x 2^14 feasible pair (2^28 node-level edges, at the pair-edge
  // cap) plus infeasible filler workers bringing m + n to 2^30 - 2^14. The
  // node ids fit int32, but the 2 * (m + n + edges) arcs do not. The guard
  // must reject the network before instantiating a billion guide nodes.
  const SpacetimeSpec st(SlotSpec(4.0, 4), GridSpec(2.0, 2.0, 2, 2));
  PredictionMatrix prediction(st);
  constexpr int32_t kSide = 1 << 14;
  prediction.set_workers_at(st.TypeAt(0, 0), kSide);
  prediction.set_tasks_at(st.TypeAt(0, 0), kSide);
  // Last-slot workers: every task lies three slots in their past.
  prediction.set_workers_at(st.TypeAt(3, 0), (1 << 30) - 3 * kSide);
  ASSERT_EQ(prediction.TotalWorkers() + prediction.TotalTasks(),
            (int64_t{1} << 30) - kSide);

  GuideOptions options;
  options.engine = GuideOptions::Engine::kDinic;
  options.worker_duration = 1.0;
  options.task_duration = 1.0;
  const GuideGenerator generator(1.0, options);
  ASSERT_EQ(generator.FeasibleTypePairs(prediction).size(), 1u);
  ASSERT_EQ(generator.EstimateNodeLevelEdges(prediction), int64_t{1} << 28);
  const auto guide = generator.Generate(prediction);
  ASSERT_FALSE(guide.ok());
  EXPECT_EQ(guide.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(guide.status().message().find("too large"), std::string::npos);
}

TEST(GuideGeneratorTest, EveryGenerateEnumeratesTypePairsOnce) {
  // kAuto's edge estimate and the network it then builds share one
  // enumeration, on both routes; so do every fixed engine and approximate
  // sampling.
  const PredictionMatrix prediction = ApproxTestPrediction();
  struct Case {
    GuideOptions::Engine engine;
    int64_t edge_limit;
    double rate;
  };
  const int64_t kNever = 0;
  const int64_t kAlways = int64_t{1} << 40;
  for (const Case& c : {Case{GuideOptions::Engine::kAuto, kNever, 1.0},
                        Case{GuideOptions::Engine::kAuto, kAlways, 1.0},
                        Case{GuideOptions::Engine::kAuto, kAlways, 0.5},
                        Case{GuideOptions::Engine::kDinic, kAlways, 1.0},
                        Case{GuideOptions::Engine::kFordFulkerson, kAlways,
                             1.0},
                        Case{GuideOptions::Engine::kCompressed, kAlways, 1.0},
                        Case{GuideOptions::Engine::kCompressedMinCost,
                             kAlways, 1.0}}) {
    GuideOptions options = ApproxTestOptions(c.rate);
    options.engine = c.engine;
    options.node_level_edge_limit = c.edge_limit;
    const GuideGenerator generator(2.0, options);
    for (int call = 1; call <= 3; ++call) {
      ASSERT_TRUE(generator.Generate(prediction).ok());
      EXPECT_EQ(generator.pair_enumerations(), call)
          << "engine " << static_cast<int>(c.engine) << " limit "
          << c.edge_limit << " rate " << c.rate;
    }
  }
}

}  // namespace
}  // namespace ftoa
