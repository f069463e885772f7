// Property/stress suite for the sharded streaming dispatcher
// (sim/sharded_dispatcher): merged-assignment validity invariants across
// randomized instances x shard counts x every registry algorithm, 1-shard
// bit-identity with the unsharded session path, thread-count invariance
// under concurrent shard execution, the incremental TGOA/GR matchers
// against their rebuild oracles per shard, router unit properties, and the
// documented
// RunMetrics merge semantics. The *Stress* suites honor FTOA_STRESS_ITERS
// (tools/run_stress.sh) for a higher iteration count.

#include "sim/sharded_dispatcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm_registry.h"
#include "model/arrival_stream.h"
#include "oracles/rebuild_gr_batch.h"
#include "oracles/rebuild_tgoa.h"
#include "sim/runner.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftoa {
namespace {

using ::ftoa::testing::AllArrivalPatterns;
using ::ftoa::testing::ArrivalPattern;
using ::ftoa::testing::ArrivalPatternName;
using ::ftoa::testing::ExpectIdenticalRun;
using ::ftoa::testing::FuzzUniverse;
using ::ftoa::testing::MakeFuzzUniverse;
using ::ftoa::testing::StressIterations;

using Universe = FuzzUniverse;

/// Object-level deadline policy an algorithm's pairs must satisfy, or
/// nullopt for the POLAR family, whose guide-trust pairs are feasible at
/// the type-representative level only (the strict-verification axis) —
/// those get the structural checks but no object-level Validate.
std::optional<FeasibilityPolicy> PolicyFor(const std::string& name) {
  if (name == "simple-greedy" || name == "gr" || name == "tgoa") {
    return FeasibilityPolicy::kDispatchAtAssignmentTime;
  }
  if (name == "opt") return FeasibilityPolicy::kDispatchAtWorkerStart;
  return std::nullopt;
}

/// The full validity contract of a merged sharded assignment.
void ExpectMergedValid(const Universe& universe, const std::string& name,
                       const ShardedOptions& options,
                       const ShardedRunResult& result,
                       const std::string& label) {
  // Structural: ids in range, each object matched at most once, pair maps
  // coherent (Assignment::Add enforces the capacity side — a cross-shard
  // duplicate would have failed the merge).
  EXPECT_LE(result.assignment.size(),
            std::min(universe.instance.num_workers(),
                     universe.instance.num_tasks()))
      << label;
  for (const MatchedPair& pair : result.assignment.pairs()) {
    ASSERT_GE(pair.worker, 0) << label;
    ASSERT_LT(static_cast<size_t>(pair.worker),
              universe.instance.num_workers())
        << label;
    ASSERT_GE(pair.task, 0) << label;
    ASSERT_LT(static_cast<size_t>(pair.task), universe.instance.num_tasks())
        << label;
    EXPECT_EQ(result.assignment.MatchOfWorker(pair.worker), pair.task)
        << label;
    EXPECT_EQ(result.assignment.MatchOfTask(pair.task), pair.worker)
        << label;
  }

  // Object-level deadline feasibility for the algorithms that promise it
  // (the POLAR family trusts the guide; see PolicyFor).
  if (const std::optional<FeasibilityPolicy> policy = PolicyFor(name)) {
    const Status valid = result.assignment.Validate(universe.instance,
                                                    *policy);
    EXPECT_TRUE(valid.ok()) << label << ": " << valid.ToString();
  }

  // Every matched pair lives inside one shard: the router must agree on
  // both endpoints (per-shard sessions can only see their own objects).
  const std::unique_ptr<ShardRouter> router = MakeShardRouter(
      options.router, universe.instance, options.num_shards);
  for (const MatchedPair& pair : result.assignment.pairs()) {
    const Worker& w = universe.instance.worker(pair.worker);
    const Task& r = universe.instance.task(pair.task);
    EXPECT_EQ(router->Route(ObjectKind::kWorker, w.id, w.location),
              router->Route(ObjectKind::kTask, r.id, r.location))
        << label << " pair (" << pair.worker << ", " << pair.task << ")";
  }

  // Per-shard metrics add up to the merged view.
  int64_t shard_matches = 0;
  int64_t shard_decisions = 0;
  for (const RunMetrics& shard : result.shard_metrics) {
    shard_matches += shard.matching_size;
    shard_decisions += shard.decisions;
  }
  EXPECT_EQ(shard_matches,
            static_cast<int64_t>(result.assignment.size()))
      << label;
  EXPECT_EQ(shard_decisions,
            static_cast<int64_t>(universe.instance.num_workers() +
                                 universe.instance.num_tasks()))
      << label;
  EXPECT_EQ(result.metrics.decisions, shard_decisions) << label;
  EXPECT_EQ(result.metrics.matching_size, shard_matches) << label;
}

class ShardedDispatcherTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ShardedDispatcherTest, SingleShardBitIdenticalToUnshardedSession) {
  for (const ShardRouterKind router :
       {ShardRouterKind::kGrid, ShardRouterKind::kHash}) {
    const Universe universe = MakeFuzzUniverse(7, ArrivalPattern::kShuffledIds);
    auto algorithm = CreateAlgorithm(GetParam(), universe.deps);
    ASSERT_TRUE(algorithm.ok()) << algorithm.status().ToString();

    RunTrace solo_trace;
    const Assignment solo = (*algorithm)->Run(universe.instance, &solo_trace);

    ShardedOptions options;
    options.num_shards = 1;
    options.router = router;
    ShardedDispatcher dispatcher(algorithm->get(), options);
    auto sharded = dispatcher.Run(universe.instance);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

    const std::string label = std::string(GetParam()) + " router " +
                              (router == ShardRouterKind::kGrid ? "grid"
                                                                : "hash");
    ExpectIdenticalRun(solo, solo_trace, sharded->assignment, sharded->trace,
                    label);
    EXPECT_EQ(sharded->shard_metrics.size(), 1u) << label;
  }
}

TEST_P(ShardedDispatcherTest, MergedAssignmentValidAcrossShardCounts) {
  for (const ArrivalPattern pattern :
       {ArrivalPattern::kBursty, ArrivalPattern::kShuffledIds}) {
    const Universe universe = MakeFuzzUniverse(31, pattern);
    for (const int num_shards : {2, 3, 8}) {
      for (const ShardRouterKind router :
           {ShardRouterKind::kGrid, ShardRouterKind::kHash}) {
        ShardedOptions options;
        options.algorithm = GetParam();
        options.num_shards = num_shards;
        options.num_threads = num_shards;  // Concurrent shard execution.
        options.router = router;
        auto dispatcher = ShardedDispatcher::Create(options, universe.deps);
        ASSERT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
        auto result = (*dispatcher)->Run(universe.instance);
        ASSERT_TRUE(result.ok()) << result.status().ToString();

        const std::string label =
            std::string(GetParam()) + " " + ArrivalPatternName(pattern) +
            " shards=" + std::to_string(num_shards) +
            (router == ShardRouterKind::kGrid ? " grid" : " hash");
        ExpectMergedValid(universe, GetParam(), options, *result, label);
      }
    }
  }
}

TEST_P(ShardedDispatcherTest, ThreadCountDoesNotChangeTheMergedOutput) {
  // Interleaving-independence: with 8 shards live, the merged assignment
  // and trace must be identical whether shards run inline, on 2 threads,
  // or one thread per shard.
  const Universe universe = MakeFuzzUniverse(1229, ArrivalPattern::kBursty);
  std::unique_ptr<ShardedRunResult> reference;
  for (const int num_threads : {1, 2, 8}) {
    ShardedOptions options;
    options.algorithm = GetParam();
    options.num_shards = 8;
    options.num_threads = num_threads;
    auto dispatcher = ShardedDispatcher::Create(options, universe.deps);
    ASSERT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
    auto result = (*dispatcher)->Run(universe.instance);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (reference == nullptr) {
      reference = std::make_unique<ShardedRunResult>(std::move(*result));
      continue;
    }
    ExpectIdenticalRun(reference->assignment, reference->trace,
                    result->assignment, result->trace,
                    std::string(GetParam()) + " threads=" +
                        std::to_string(num_threads));
  }
}

TEST_P(ShardedDispatcherTest, HandoffBatchSizeDoesNotChangeTheMergedOutput) {
  // Batching only changes *when* events cross the thread boundary, never
  // their per-shard order: every batch size — per-event (1), tiny, odd,
  // larger than the whole stream — must reproduce the inline reference.
  const Universe universe = MakeFuzzUniverse(733, ArrivalPattern::kBursty);
  ShardedOptions options;
  options.algorithm = GetParam();
  options.num_shards = 4;
  options.num_threads = 1;  // Inline reference: staging is bypassed.
  auto reference_dispatcher =
      ShardedDispatcher::Create(options, universe.deps);
  ASSERT_TRUE(reference_dispatcher.ok())
      << reference_dispatcher.status().ToString();
  auto reference = (*reference_dispatcher)->Run(universe.instance);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (const int handoff_batch : {1, 2, 7, 1 << 20}) {
    options.num_threads = 4;
    options.handoff_batch = handoff_batch;
    auto dispatcher = ShardedDispatcher::Create(options, universe.deps);
    ASSERT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
    auto result = (*dispatcher)->Run(universe.instance);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdenticalRun(reference->assignment, reference->trace,
                    result->assignment, result->trace,
                    std::string(GetParam()) + " handoff_batch=" +
                        std::to_string(handoff_batch));
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ShardedDispatcherTest,
                         ::testing::Values("simple-greedy", "gr", "tgoa",
                                           "polar", "polar-op", "polar-op-g",
                                           "opt"),
                         [](const auto& tpi) {
                           std::string name = tpi.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ShardedDispatcherSuiteTest, ParameterListCoversTheWholeRegistry) {
  EXPECT_EQ(AllAlgorithmNames(),
            (std::vector<std::string>{"simple-greedy", "gr", "tgoa", "polar",
                                      "polar-op", "polar-op-g", "opt"}));
}

TEST(ShardedDispatcherSuiteTest, IncrementalMatchersMatchRebuildOracles) {
  // The per-shard TGOA/GR sessions carry one incremental matcher each;
  // sharded, they must commit what the rebuild-per-batch oracles routed
  // through the same dispatcher commit.
  const Universe universe = MakeFuzzUniverse(47, ArrivalPattern::kBursty);
  testing::RebuildTgoa rebuild_tgoa(universe.deps.tgoa_options);
  testing::RebuildGrBatch rebuild_gr(universe.deps.gr_options);
  const std::pair<const char*, OnlineAlgorithm*> cases[] = {
      {"tgoa", &rebuild_tgoa}, {"gr", &rebuild_gr}};
  for (const auto& [name, oracle] : cases) {
    for (const int num_shards : {1, 4}) {
      ShardedOptions options;
      options.algorithm = name;
      options.num_shards = num_shards;
      options.num_threads = num_shards;
      auto dispatcher = ShardedDispatcher::Create(options, universe.deps);
      ASSERT_TRUE(dispatcher.ok());
      auto result = (*dispatcher)->Run(universe.instance);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      // TGOA's sample-and-price threshold derives from the *full* universe
      // size, so a shard seeing only a fraction of arrivals can stay in
      // its greedy phase and never engage the matcher (documented in
      // docs/sharded_dispatch.md) — require engagement only where it is
      // guaranteed: GR's windows always fire, and unsharded TGOA reaches
      // its second phase.
      if (std::string(name) == "gr" || num_shards == 1) {
        EXPECT_GT(result->trace.matcher_augment_searches, 0)
            << name << " shards=" << num_shards;
      }

      ShardedDispatcher reference(oracle, options);
      auto expected = reference.Run(universe.instance);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      const std::string label =
          std::string(name) + " shards=" + std::to_string(num_shards);
      if (std::string(name) == "tgoa") {
        // TGOA's incremental matcher commits pair for pair what the
        // rebuild trial commits; GR's may pick other equally large
        // matchings per window.
        testing::ExpectSamePairs(expected->assignment, result->assignment,
                                 label);
      } else {
        EXPECT_EQ(expected->assignment.size(), result->assignment.size())
            << label;
      }
    }
  }
}

TEST(ShardedDispatcherSuiteTest, OptShardsSolveDisjointSubUniverses) {
  // Per-shard OPT solves exactly its routed sub-instance; the shard
  // optima merge conflict-free and cannot beat the global optimum.
  const Universe universe = MakeFuzzUniverse(5, ArrivalPattern::kShuffledIds);
  auto opt = CreateAlgorithm("opt");
  ASSERT_TRUE(opt.ok());
  const Assignment global = (*opt)->Run(universe.instance);

  ShardedOptions options;
  options.algorithm = "opt";
  options.num_shards = 4;
  options.num_threads = 4;
  auto dispatcher = ShardedDispatcher::Create(options);
  ASSERT_TRUE(dispatcher.ok());
  auto result = (*dispatcher)->Run(universe.instance);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->assignment.size(), 0u);
  EXPECT_LE(result->assignment.size(), global.size());
  ExpectMergedValid(universe, "opt", options, *result, "opt shards=4");
}

TEST(ShardedDispatcherSuiteTest, RunnerRoutesThroughTheShardedPath) {
  const Universe universe = MakeFuzzUniverse(3, ArrivalPattern::kAlternating);
  auto algorithm = CreateAlgorithm("polar-op", universe.deps);
  ASSERT_TRUE(algorithm.ok());

  RunnerOptions options;
  options.num_shards = 2;
  options.shard_threads = 2;
  options.strict_verification = true;  // POLAR is guide-trust: re-verify
                                       // movement instead of Validate.
  const auto metrics =
      RunAlgorithm(algorithm->get(), universe.instance, options);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->decisions,
            static_cast<int64_t>(universe.instance.num_workers() +
                                 universe.instance.num_tasks()));
  EXPECT_EQ(metrics->strict_feasible_pairs + metrics->strict_violations,
            metrics->matching_size);

  // The runner's sharded result must match the dispatcher driven directly.
  ShardedOptions sharded;
  sharded.num_shards = 2;
  sharded.num_threads = 2;
  ShardedDispatcher dispatcher(algorithm->get(), sharded);
  auto direct = dispatcher.Run(universe.instance);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(metrics->matching_size,
            static_cast<int64_t>(direct->assignment.size()));
}

TEST(GridShardRouterTest, CutsCellsIntoContiguousBands) {
  const GridSpec grid(10.0, 10.0, 4, 4);
  const GridShardRouter router(grid, 3);
  EXPECT_EQ(router.num_shards(), 3);
  int previous = 0;
  for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
    const int shard = router.ShardOfCell(cell);
    EXPECT_GE(shard, previous) << "bands must be contiguous in cell order";
    EXPECT_LT(shard, 3);
    previous = shard;
  }
  EXPECT_EQ(router.ShardOfCell(0), 0);
  EXPECT_EQ(router.ShardOfCell(grid.num_cells() - 1), 2);
  // More shards than cells clamps (the excess could never be routed to).
  const GridShardRouter clamped(grid, 64);
  EXPECT_EQ(clamped.num_shards(), grid.num_cells());
}

TEST(ShardRouterRegistryTest, NamesParseAndRoundTrip) {
  EXPECT_EQ(AllShardRouterNames(),
            (std::vector<std::string>{"grid", "hash", "load"}));
  for (const ShardRouterKind kind :
       {ShardRouterKind::kGrid, ShardRouterKind::kHash,
        ShardRouterKind::kLoad}) {
    const std::string name = ShardRouterKindName(kind);
    const auto parsed = ParseShardRouterKind(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, kind) << name;

    // The built router reports the same canonical name.
    const Universe universe = MakeFuzzUniverse(3, ArrivalPattern::kBursty);
    EXPECT_EQ(MakeShardRouter(kind, universe.instance, 3)->name(), name);
  }
  // The algos-style unknown-name error carries the whole valid set.
  const auto unknown = ParseShardRouterKind("bogus");
  ASSERT_FALSE(unknown.ok());
  for (const std::string& name : AllShardRouterNames()) {
    EXPECT_NE(unknown.status().ToString().find(name), std::string::npos)
        << name;
  }
}

TEST(LoadShardRouterTest, BandsBalanceWeightNotArea) {
  // All weight in the last row: the load router gives the final shard just
  // that row's weighted cells, where the area split would hand it a
  // quarter of the region regardless.
  const GridSpec grid(10.0, 10.0, 4, 4);
  std::vector<int64_t> weights(static_cast<size_t>(grid.num_cells()), 0);
  for (CellId c = 12; c < 16; ++c) weights[static_cast<size_t>(c)] = 10;
  const LoadShardRouter router(grid, weights, 2);
  EXPECT_EQ(router.num_shards(), 2);
  int previous = 0;
  for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
    const int shard = router.ShardOfCell(cell);
    EXPECT_GE(shard, previous) << "bands must be contiguous in cell order";
    previous = shard;
  }
  // The weighted cells split 2/2 across the shards (20 weight each); all
  // zero-weight cells land in the first band.
  EXPECT_EQ(router.ShardOfCell(11), 0);
  EXPECT_EQ(router.ShardOfCell(12), 0);
  EXPECT_EQ(router.ShardOfCell(13), 0);
  EXPECT_EQ(router.ShardOfCell(14), 1);
  EXPECT_EQ(router.ShardOfCell(15), 1);

  int64_t per_shard[2] = {0, 0};
  for (CellId c = 0; c < grid.num_cells(); ++c) {
    per_shard[router.ShardOfCell(c)] += weights[static_cast<size_t>(c)];
  }
  EXPECT_EQ(per_shard[0], per_shard[1]);
}

TEST(LoadShardRouterTest, ZeroWeightsFallBackToTheAreaSplit) {
  const GridSpec grid(10.0, 10.0, 4, 4);
  const std::vector<int64_t> zeros(static_cast<size_t>(grid.num_cells()), 0);
  const LoadShardRouter load(grid, zeros, 3);
  const GridShardRouter area(grid, 3);
  for (CellId c = 0; c < grid.num_cells(); ++c) {
    EXPECT_EQ(load.ShardOfCell(c), area.ShardOfCell(c)) << "cell " << c;
  }
  // More shards than cells clamps, like the area router.
  const LoadShardRouter clamped(grid, zeros, 64);
  EXPECT_EQ(clamped.num_shards(), grid.num_cells());
}

TEST(LoadShardRouterTest, InstanceAndPerfectPredictionWeightsAgree) {
  // FromInstance counts realized objects per cell; FromPrediction sums the
  // per-type matrix over slots. On a perfect prediction these are the same
  // weights, so the two routers must route identically.
  const Universe universe = MakeFuzzUniverse(17, ArrivalPattern::kShuffledIds);
  const auto from_instance =
      LoadShardRouter::FromInstance(universe.instance, 3);
  const auto from_prediction = LoadShardRouter::FromPrediction(
      PredictionMatrix::FromInstance(universe.instance), 3);
  for (CellId c = 0;
       c < universe.instance.spacetime().grid().num_cells(); ++c) {
    EXPECT_EQ(from_instance->ShardOfCell(c), from_prediction->ShardOfCell(c))
        << "cell " << c;
  }
  // MakeShardRouter's kLoad path is the instance-weight router.
  const auto made =
      MakeShardRouter(ShardRouterKind::kLoad, universe.instance, 3);
  for (const Worker& w : universe.instance.workers()) {
    EXPECT_EQ(made->Route(ObjectKind::kWorker, w.id, w.location),
              from_instance->Route(ObjectKind::kWorker, w.id, w.location));
  }
}

TEST(BandShardRouterTest, NearShardBoundaryMatchesTheBandGeometry) {
  // 4x4 cells over 10x10: with 2 shards the cut is at y = 5. A point's
  // boundary band is exactly its distance to the foreign half.
  const GridSpec grid(10.0, 10.0, 4, 4);
  const GridShardRouter router(grid, 2);
  EXPECT_FALSE(router.NearShardBoundary({5.0, 0.5}, 4.4));
  EXPECT_TRUE(router.NearShardBoundary({5.0, 0.5}, 4.6));
  EXPECT_TRUE(router.NearShardBoundary({5.0, 4.9}, 0.2));
  EXPECT_TRUE(router.NearShardBoundary({5.0, 5.1}, 0.2));  // Other side.
  EXPECT_FALSE(router.NearShardBoundary({5.0, 9.5}, 4.4));

  // With 3 shards on 16 cells the cuts land mid-row (cells 0-5 | 6-10 |
  // 11-15): from cell 4's center the nearest foreign cell is the row
  // above (distance 1.25), not the suffix of its own row (3.75).
  const GridShardRouter thirds(grid, 3);
  ASSERT_EQ(thirds.ShardOfCell(4), 0);
  ASSERT_EQ(thirds.ShardOfCell(5), 0);
  ASSERT_EQ(thirds.ShardOfCell(6), 1);
  EXPECT_FALSE(thirds.NearShardBoundary({1.25, 3.75}, 1.0));
  EXPECT_TRUE(thirds.NearShardBoundary({1.25, 3.75}, 1.3));

  // One shard: no border exists anywhere.
  const GridShardRouter single(grid, 1);
  EXPECT_FALSE(single.NearShardBoundary({5.0, 5.0}, 100.0));

  // The hash router has no spatial structure: every point is
  // border-adjacent once a second shard exists.
  EXPECT_TRUE(HashShardRouter(2).NearShardBoundary({5.0, 5.0}, 0.0));
  EXPECT_FALSE(HashShardRouter(1).NearShardBoundary({5.0, 5.0}, 100.0));
}

TEST(HashShardRouterTest, DeterministicInRangeAndKindSensitive) {
  const HashShardRouter router(5);
  bool worker_task_differ_somewhere = false;
  for (int32_t id = 0; id < 200; ++id) {
    const int worker_shard = router.Route(ObjectKind::kWorker, id, {});
    EXPECT_GE(worker_shard, 0);
    EXPECT_LT(worker_shard, 5);
    EXPECT_EQ(worker_shard, router.Route(ObjectKind::kWorker, id, {}));
    if (worker_shard != router.Route(ObjectKind::kTask, id, {})) {
      worker_task_differ_somewhere = true;
    }
  }
  // Workers and tasks hash independently (same id, different kind).
  EXPECT_TRUE(worker_task_differ_somewhere);
}

TEST(MergeShardRunMetricsTest, DocumentedFieldSemantics) {
  RunMetrics a;
  a.algorithm = "POLAR-OP";
  a.matching_size = 10;
  a.elapsed_seconds = 0.5;
  a.busy_seconds = 0.4;
  a.peak_memory_bytes = 100;
  a.decisions = 40;
  a.dispatched_workers = 4;
  a.ignored_objects = 1;
  a.reconciled_pairs = 2;
  a.decision_latency_p50_ns = 100.0;
  a.decision_latency_p99_ns = 900.0;
  a.decision_latency_max_ns = 1500.0;
  RunMetrics b = a;
  b.matching_size = 5;
  b.elapsed_seconds = 0.75;
  b.busy_seconds = 0.7;
  b.peak_memory_bytes = 50;
  b.decisions = 25;
  b.reconciled_pairs = 3;
  b.decision_latency_p50_ns = 200.0;
  b.decision_latency_p99_ns = 400.0;
  b.decision_latency_max_ns = 2500.0;

  const RunMetrics merged = MergeShardRunMetrics({a, b});
  EXPECT_EQ(merged.algorithm, "POLAR-OP");
  // Counters sum.
  EXPECT_EQ(merged.matching_size, 15);
  EXPECT_EQ(merged.decisions, 65);
  EXPECT_EQ(merged.peak_memory_bytes, 150u);
  EXPECT_EQ(merged.dispatched_workers, 8);
  EXPECT_EQ(merged.ignored_objects, 2);
  EXPECT_EQ(merged.reconciled_pairs, 5);
  // Wall clock is the critical path: max. Busy time is work: sum.
  EXPECT_DOUBLE_EQ(merged.elapsed_seconds, 0.75);
  EXPECT_DOUBLE_EQ(merged.busy_seconds, 1.1);
  // Percentiles merge by max — the conservative pooled upper bound; a
  // weighted average would report p50 < a's p50, hiding the slow shard.
  EXPECT_DOUBLE_EQ(merged.decision_latency_p50_ns, 200.0);
  EXPECT_DOUBLE_EQ(merged.decision_latency_p99_ns, 900.0);
  EXPECT_DOUBLE_EQ(merged.decision_latency_max_ns, 2500.0);

  EXPECT_EQ(MergeShardRunMetrics({}).decisions, 0);
}

TEST(MergeShardRunMetricsTest, BusyTimeIsSummedWorkNotWallClock) {
  // FillDecisionLatencies derives busy time from the raw sample ...
  std::vector<int64_t> latencies = {100, 200, 300};
  RunMetrics filled;
  FillDecisionLatencies(latencies, &filled);
  EXPECT_DOUBLE_EQ(filled.busy_seconds, 600.0 * 1e-9);

  // ... and a real sharded run reports per-shard elapsed == busy (a shard
  // has no wall clock of its own) with the merged busy being their sum.
  const Universe universe = MakeFuzzUniverse(5, ArrivalPattern::kBursty);
  ShardedOptions options;
  options.algorithm = "polar-op";
  options.num_shards = 3;
  auto dispatcher = ShardedDispatcher::Create(options, universe.deps);
  ASSERT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
  auto result = (*dispatcher)->Run(universe.instance);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  double busy_sum = 0.0;
  for (const RunMetrics& shard : result->shard_metrics) {
    EXPECT_DOUBLE_EQ(shard.elapsed_seconds, shard.busy_seconds);
    EXPECT_GT(shard.busy_seconds, 0.0);
    busy_sum += shard.busy_seconds;
  }
  EXPECT_DOUBLE_EQ(result->metrics.busy_seconds, busy_sum);
  // Run() measures the replay's wall clock, which covers the busy time of
  // the critical-path shard at least.
  EXPECT_GT(result->metrics.elapsed_seconds, 0.0);
}

TEST(MergeShardRunMetricsTest, MaxMergeUpperBoundsThePooledPercentile) {
  // The documented guarantee, checked on raw samples: pooled p99 never
  // exceeds the max of per-shard p99s (up to nearest-rank discretization).
  Rng rng(91);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::vector<int64_t>> shards(
        2 + static_cast<size_t>(rng.NextBounded(4)));
    std::vector<int64_t> pooled;
    for (auto& shard : shards) {
      const size_t n = 50 + rng.NextBounded(200);
      shard.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        shard.push_back(static_cast<int64_t>(rng.NextBounded(100000)));
      }
      pooled.insert(pooled.end(), shard.begin(), shard.end());
    }
    std::vector<RunMetrics> shard_metrics(shards.size());
    for (size_t s = 0; s < shards.size(); ++s) {
      FillDecisionLatencies(shards[s], &shard_metrics[s]);
    }
    const RunMetrics merged = MergeShardRunMetrics(shard_metrics);
    // The provable form of the bound: strictly fewer than 1% of pooled
    // samples exceed the max of the per-shard p99s (each shard contributes
    // < 0.01 * n_s such samples by the nearest-rank definition).
    int64_t above = 0;
    for (const int64_t sample : pooled) {
      if (static_cast<double>(sample) > merged.decision_latency_p99_ns) {
        ++above;
      }
    }
    EXPECT_LT(static_cast<double>(above),
              0.01 * static_cast<double>(pooled.size()))
        << "round " << round;
    RunMetrics exact;
    FillDecisionLatencies(pooled, &exact);
    EXPECT_GE(merged.decision_latency_max_ns, exact.decision_latency_max_ns);
  }
}

// ------------------------------------------------------------- stress suite --

/// Randomized sweep: pattern x seed x algorithm x shard count x thread
/// count x router, asserting the full validity contract plus re-run
/// determinism. Default iterations keep plain ctest fast; FTOA_STRESS_ITERS
/// (tools/run_stress.sh) widens the sweep.
TEST(ShardedDispatcherStressTest, RandomizedShardSessionEquivalence) {
  const int iterations = StressIterations(2);
  const std::vector<std::string> algorithms = AllAlgorithmNames();
  const std::vector<ArrivalPattern> patterns = AllArrivalPatterns();
  Rng rng(20260730);
  for (int iter = 0; iter < iterations; ++iter) {
    const ArrivalPattern pattern =
        patterns[rng.NextBounded(patterns.size())];
    const uint64_t seed = rng.Next();
    const Universe universe =
        MakeFuzzUniverse(seed, pattern, 40 + static_cast<int>(rng.NextBounded(41)),
                     40 + static_cast<int>(rng.NextBounded(41)));
    for (const std::string& name : algorithms) {
      ShardedOptions options;
      options.algorithm = name;
      options.num_shards = 1 + static_cast<int>(rng.NextBounded(8));
      options.num_threads = 1 + static_cast<int>(rng.NextBounded(4));
      options.router = rng.NextBool() ? ShardRouterKind::kGrid
                                      : ShardRouterKind::kHash;
      auto dispatcher = ShardedDispatcher::Create(options, universe.deps);
      ASSERT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
      auto first = (*dispatcher)->Run(universe.instance);
      ASSERT_TRUE(first.ok()) << first.status().ToString();

      const std::string label =
          "iter " + std::to_string(iter) + " " + name + " " +
          ArrivalPatternName(pattern) +
          " shards=" + std::to_string(options.num_shards) +
          " threads=" + std::to_string(options.num_threads);
      ExpectMergedValid(universe, name, options, *first, label);

      // Determinism: the same dispatcher re-runs bit-identically (fresh
      // sessions, same routing).
      auto second = (*dispatcher)->Run(universe.instance);
      ASSERT_TRUE(second.ok());
      ExpectIdenticalRun(first->assignment, first->trace, second->assignment,
                      second->trace, label + " rerun");
    }
  }
}

}  // namespace
}  // namespace ftoa
