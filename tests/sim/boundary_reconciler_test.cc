// Property suite for post-merge boundary reconciliation
// (sim/boundary_reconciler) through the sharded dispatcher: reconciled
// runs only *add* pairs (the base merge is a strict prefix), every added
// pair joins previously-unmatched objects from different shards and
// satisfies the algorithm's object-level deadline policy (guide-capacity-
// aware for the POLAR family), the pass is bit-identical across thread
// counts, lent pool sizes and reruns, and it degenerates to a no-op at one
// shard. The *Stress* sweep crosses MakeFuzzInstance arrival patterns x
// routers x handoff batch sizes (FTOA_STRESS_ITERS widens it) and checks
// the pass against the serial oracle in tests/oracles/. Guided passes are
// also pinned to the oracle with guides on a coarser and a finer grid than
// the instance's, and with a guide that has no matched pairs.

#include "sim/boundary_reconciler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/algorithm_registry.h"
#include "core/guide_generator.h"
#include "core/prediction_matrix.h"
#include "oracles/serial_boundary_reconciler.h"
#include "sim/runner.h"
#include "sim/sharded_dispatcher.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ftoa {
namespace {

using ::ftoa::testing::AllArrivalPatterns;
using ::ftoa::testing::ArrivalPattern;
using ::ftoa::testing::ArrivalPatternName;
using ::ftoa::testing::ExpectIdenticalRun;
using ::ftoa::testing::ExpectSamePairs;
using ::ftoa::testing::ExpectSameRetrievalStats;
using ::ftoa::testing::FuzzUniverse;
using ::ftoa::testing::MakeFuzzUniverse;
using ::ftoa::testing::StressIterations;

using Universe = FuzzUniverse;

/// Runs the same sharded configuration twice — reconciliation off and on —
/// and checks the full reconciliation contract against the base run.
void ExpectReconcileContract(const Universe& universe,
                             const std::string& algorithm_name,
                             ShardedOptions options,
                             const std::string& label) {
  options.algorithm = algorithm_name;
  options.reconcile = false;
  auto base_dispatcher = ShardedDispatcher::Create(options, universe.deps);
  ASSERT_TRUE(base_dispatcher.ok()) << base_dispatcher.status().ToString();
  auto base = (*base_dispatcher)->Run(universe.instance);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->metrics.reconciled_pairs, 0) << label;

  options.reconcile = true;
  auto dispatcher = ShardedDispatcher::Create(options, universe.deps);
  ASSERT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
  auto reconciled = (*dispatcher)->Run(universe.instance);
  ASSERT_TRUE(reconciled.ok()) << reconciled.status().ToString();

  // Never unmatch: the base merge is a literal prefix of the reconciled
  // pair list, and the traces agree (reconciliation decides nothing
  // through the sessions).
  ASSERT_GE(reconciled->assignment.size(), base->assignment.size()) << label;
  for (size_t i = 0; i < base->assignment.pairs().size(); ++i) {
    const MatchedPair& expected = base->assignment.pairs()[i];
    const MatchedPair& got = reconciled->assignment.pairs()[i];
    ASSERT_EQ(expected.worker, got.worker) << label << " pair " << i;
    ASSERT_EQ(expected.task, got.task) << label << " pair " << i;
    ASSERT_EQ(expected.time, got.time) << label << " pair " << i;
  }

  // The algorithm's own policy, guide, and the run's router decide what an
  // added pair must satisfy.
  auto algorithm = CreateAlgorithm(algorithm_name, universe.deps);
  ASSERT_TRUE(algorithm.ok()) << algorithm.status().ToString();
  const FeasibilityPolicy policy = (*algorithm)->feasibility_policy();
  const OfflineGuide* guide = (*algorithm)->guide();
  const std::unique_ptr<ShardRouter> router = MakeShardRouter(
      options.router, universe.instance, options.num_shards);

  std::unordered_map<int64_t, int32_t> capacity;
  if (guide != nullptr) capacity = guide->MatchedPairCountsByTypePair();

  const size_t added =
      reconciled->assignment.size() - base->assignment.size();
  EXPECT_EQ(reconciled->reconcile.recovered_pairs,
            static_cast<int64_t>(added))
      << label;
  EXPECT_EQ(reconciled->metrics.reconciled_pairs,
            static_cast<int64_t>(added))
      << label;
  EXPECT_EQ(reconciled->metrics.matching_size,
            static_cast<int64_t>(reconciled->assignment.size()))
      << label;

  for (size_t i = base->assignment.pairs().size();
       i < reconciled->assignment.pairs().size(); ++i) {
    const MatchedPair& pair = reconciled->assignment.pairs()[i];
    const Worker& w = universe.instance.worker(pair.worker);
    const Task& r = universe.instance.task(pair.task);
    // Both endpoints were left unmatched by the base run ...
    EXPECT_FALSE(base->assignment.IsWorkerMatched(pair.worker))
        << label << " pair " << i;
    EXPECT_FALSE(base->assignment.IsTaskMatched(pair.task))
        << label << " pair " << i;
    // ... live in *different* shards (same-shard leftovers are the
    // per-shard algorithm's own decisions and stay untouched) ...
    EXPECT_NE(router->Route(ObjectKind::kWorker, w.id, w.location),
              router->Route(ObjectKind::kTask, r.id, r.location))
        << label << " pair " << i;
    // ... and satisfy the algorithm's object-level deadline policy.
    EXPECT_TRUE(CanServe(w, r, universe.instance.velocity(), policy))
        << label << " pair " << i;
    // Guide-capacity awareness: consume the matched-pair multiplicity of
    // the pair's (worker type, task type); running dry would mean the
    // reconciler over-spent the guide.
    if (guide != nullptr) {
      const SpacetimeSpec& st = guide->spacetime();
      const int64_t key =
          guide->TypePairKey(st.TypeOf(w.location, w.start),
                             st.TypeOf(r.location, r.start));
      ASSERT_GT(capacity[key], 0) << label << " pair " << i;
      --capacity[key];
    }
  }
}

/// Every ReconcileStats field except the retrieval counters.
void ExpectSameOutcome(const ReconcileStats& want, const ReconcileStats& got,
                       const std::string& label) {
  EXPECT_EQ(want.boundary_workers, got.boundary_workers) << label;
  EXPECT_EQ(want.boundary_tasks, got.boundary_tasks) << label;
  EXPECT_EQ(want.recovered_pairs, got.recovered_pairs) << label;
  EXPECT_EQ(want.capacity_dropped, got.capacity_dropped) << label;
}

/// Every ReconcileStats field, the retrieval counters and the cells
/// histogram included.
void ExpectIdenticalStats(const ReconcileStats& want,
                          const ReconcileStats& got,
                          const std::string& label) {
  ExpectSameOutcome(want, got, label);
  ExpectSameRetrievalStats(want.retrieval, got.retrieval, label);
}

class BoundaryReconcilerTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(BoundaryReconcilerTest, OnlyAddsValidCrossShardPairs) {
  for (const ArrivalPattern pattern :
       {ArrivalPattern::kBursty, ArrivalPattern::kShuffledIds}) {
    const Universe universe = MakeFuzzUniverse(101, pattern);
    for (const int num_shards : {2, 4}) {
      for (const ShardRouterKind router :
           {ShardRouterKind::kGrid, ShardRouterKind::kHash,
            ShardRouterKind::kLoad}) {
        ShardedOptions options;
        options.num_shards = num_shards;
        options.num_threads = num_shards;
        options.router = router;
        ExpectReconcileContract(
            universe, GetParam(), options,
            std::string(GetParam()) + " " + ArrivalPatternName(pattern) +
                " shards=" + std::to_string(num_shards) + " " +
                ShardRouterKindName(router));
      }
    }
  }
}

TEST_P(BoundaryReconcilerTest, NoOpAtOneShard) {
  // A single shard has no border: the reconciled run must stay
  // bit-identical to the unsharded session path, recovered count zero.
  const Universe universe = MakeFuzzUniverse(7, ArrivalPattern::kShuffledIds);
  auto algorithm = CreateAlgorithm(GetParam(), universe.deps);
  ASSERT_TRUE(algorithm.ok()) << algorithm.status().ToString();
  RunTrace solo_trace;
  const Assignment solo = (*algorithm)->Run(universe.instance, &solo_trace);

  ShardedOptions options;
  options.algorithm = GetParam();
  options.num_shards = 1;
  options.reconcile = true;
  auto dispatcher = ShardedDispatcher::Create(options, universe.deps);
  ASSERT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
  auto result = (*dispatcher)->Run(universe.instance);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectIdenticalRun(solo, solo_trace, result->assignment, result->trace,
                  std::string(GetParam()) + " 1-shard reconcile");
  EXPECT_EQ(result->reconcile.recovered_pairs, 0);
  EXPECT_EQ(result->reconcile.boundary_workers, 0);
  EXPECT_EQ(result->metrics.reconciled_pairs, 0);
}

TEST_P(BoundaryReconcilerTest, ThreadCountDoesNotChangeTheReconciledOutput) {
  const Universe universe = MakeFuzzUniverse(409, ArrivalPattern::kBursty);
  std::unique_ptr<ShardedRunResult> reference;
  for (const int num_threads : {1, 2, 4}) {
    ShardedOptions options;
    options.algorithm = GetParam();
    options.num_shards = 4;
    options.num_threads = num_threads;
    options.reconcile = true;
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
    // Threaded sessions lend their shard pool to the pass; the stats must
    // still match the inline run's, retrieval counters included.
    ExpectIdenticalStats(reference->reconcile, result->reconcile,
                         std::string(GetParam()) + " threads=" +
                             std::to_string(num_threads));
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, BoundaryReconcilerTest,
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

TEST(BoundaryReconcilerSuiteTest, RecoversTheForfeitedCrossBoundaryMatch) {
  // One worker below the band cut, one feasible task above it: the 2-shard
  // grid partition forfeits the only possible match, and reconciliation
  // must win exactly it back.
  std::vector<Worker> workers(1);
  workers[0] = {0, {5.0, 2.5}, 0.0, 10.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {5.0, 7.5}, 0.0, 10.0};
  const Instance instance(
      SpacetimeSpec(SlotSpec(10.0, 2), GridSpec(10.0, 10.0, 4, 4)),
      /*velocity=*/2.0, std::move(workers), std::move(tasks));

  ShardedOptions options;
  options.algorithm = "simple-greedy";
  options.num_shards = 2;
  auto base_dispatcher = ShardedDispatcher::Create(options);
  ASSERT_TRUE(base_dispatcher.ok());
  auto base = (*base_dispatcher)->Run(instance);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->assignment.size(), 0u);

  options.reconcile = true;
  auto dispatcher = ShardedDispatcher::Create(options);
  ASSERT_TRUE(dispatcher.ok());
  auto result = (*dispatcher)->Run(instance);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->assignment.size(), 1u);
  EXPECT_EQ(result->assignment.pairs()[0].worker, 0);
  EXPECT_EQ(result->assignment.pairs()[0].task, 0);
  // Decision time: the earliest moment a platform seeing both shards
  // could have committed the pair.
  EXPECT_EQ(result->assignment.pairs()[0].time, 0.0);
  EXPECT_EQ(result->reconcile.recovered_pairs, 1);
  EXPECT_EQ(result->reconcile.boundary_workers, 1);
  EXPECT_EQ(result->reconcile.boundary_tasks, 1);

  // The unsharded algorithm agrees this match exists.
  auto algorithm = CreateAlgorithm("simple-greedy");
  ASSERT_TRUE(algorithm.ok());
  EXPECT_EQ((*algorithm)->Run(instance).size(), 1u);
}

TEST(BoundaryReconcilerSuiteTest, RunnerPlumbsHandoffAndReconcile) {
  const Universe universe = MakeFuzzUniverse(3, ArrivalPattern::kAlternating);
  auto algorithm = CreateAlgorithm("simple-greedy", universe.deps);
  ASSERT_TRUE(algorithm.ok());

  RunnerOptions options;
  options.num_shards = 4;
  options.shard_threads = 2;
  options.shard_handoff_batch = 3;
  options.shard_reconcile = true;
  const auto metrics =
      RunAlgorithm(algorithm->get(), universe.instance, options);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  ShardedOptions sharded;
  sharded.num_shards = 4;
  sharded.num_threads = 2;
  sharded.handoff_batch = 3;
  sharded.reconcile = true;
  ShardedDispatcher dispatcher(algorithm->get(), sharded);
  auto direct = dispatcher.Run(universe.instance);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(metrics->matching_size,
            static_cast<int64_t>(direct->assignment.size()));
  EXPECT_EQ(metrics->reconciled_pairs, direct->reconcile.recovered_pairs);
  EXPECT_GT(metrics->busy_seconds, 0.0);
}

TEST(BoundaryReconcilerSuiteTest, DirectCallRejectsBadOptions) {
  const Universe universe = MakeFuzzUniverse(3, ArrivalPattern::kBursty);
  const std::unique_ptr<ShardRouter> router =
      MakeShardRouter(ShardRouterKind::kGrid, universe.instance, 2);
  Assignment assignment(universe.instance.num_workers(),
                        universe.instance.num_tasks());
  ReconcileOptions options;
  // Zero, and sizes whose boundary-workers x k slot array would throw
  // instead of failing with a Status.
  for (const int k : {0, -1, ReconcileOptions::kMaxCandidatesPerWorker + 1,
                      std::numeric_limits<int>::max()}) {
    options.max_candidates_per_worker = k;
    const auto stats = ReconcileShardBoundary(universe.instance, *router,
                                              options, &assignment);
    ASSERT_FALSE(stats.ok()) << "k=" << k;
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument)
        << "k=" << k;
  }
  options.max_candidates_per_worker = ReconcileOptions::kMaxCandidatesPerWorker;
  const auto at_cap = ReconcileShardBoundary(universe.instance, *router,
                                             options, &assignment);
  EXPECT_TRUE(at_cap.ok()) << at_cap.status().ToString();
}

// ------------------------------------------------------------ lent pools --

/// The merged, unreconciled assignment of a sharded run, plus what the
/// reconciliation pass needs to run directly on it.
struct BaseRun {
  Assignment assignment{0, 0};
  std::unique_ptr<ShardRouter> router;
  ReconcileOptions options;
};

BaseRun MakeBaseRun(const Universe& universe, const std::string& algorithm,
                    ShardedOptions sharded) {
  sharded.algorithm = algorithm;
  sharded.reconcile = false;
  auto dispatcher = ShardedDispatcher::Create(sharded, universe.deps);
  EXPECT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
  auto base = (*dispatcher)->Run(universe.instance);
  EXPECT_TRUE(base.ok()) << base.status().ToString();
  auto created = CreateAlgorithm(algorithm, universe.deps);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  BaseRun run;
  run.assignment = std::move(base->assignment);
  run.router = MakeShardRouter(sharded.router, universe.instance,
                               sharded.num_shards);
  run.options.policy = (*created)->feasibility_policy();
  // The guide is shared through deps, so it outlives the algorithm.
  run.options.guide = (*created)->guide();
  return run;
}

TEST(BoundaryReconcilerSuiteTest, LentPoolSizeDoesNotChangeThePass) {
  // Big enough that every pool size splits discovery into many ranges.
  const Universe universe =
      MakeFuzzUniverse(913, ArrivalPattern::kBursty, 600, 600);
  for (const char* algorithm : {"simple-greedy", "polar-op"}) {
    for (const ShardRouterKind router_kind :
         {ShardRouterKind::kGrid, ShardRouterKind::kLoad,
          ShardRouterKind::kHash}) {
      ShardedOptions sharded;
      sharded.num_shards = 4;
      sharded.router = router_kind;
      BaseRun base = MakeBaseRun(universe, algorithm, sharded);
      const std::string label = std::string(algorithm) + " " +
                                ShardRouterKindName(router_kind);

      Assignment reference = base.assignment;
      const auto serial = ReconcileShardBoundary(
          universe.instance, *base.router, base.options, &reference);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      ASSERT_GT(serial->boundary_workers, 36) << label;
      EXPECT_GT(serial->recovered_pairs, 0) << label;
      for (const int threads : {1, 2, 3, 8}) {
        ThreadPool pool(threads);
        ReconcileOptions options = base.options;
        options.pool = &pool;
        Assignment got = base.assignment;
        const auto pooled = ReconcileShardBoundary(
            universe.instance, *base.router, options, &got);
        ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
        const std::string pool_label =
            label + " pool=" + std::to_string(threads);
        ExpectSamePairs(reference, got, pool_label);
        ExpectIdenticalStats(*serial, *pooled, pool_label);
      }
    }
  }
}

TEST(BoundaryReconcilerSuiteTest, ReturnsWhileTheLentPoolStaysBlocked) {
  // The pool's only worker is held for the whole call, so every helper the
  // pass submits queues behind it: the caller must do all of discovery
  // itself and return, and a helper that starts afterwards must find
  // nothing to do.
  const Universe universe =
      MakeFuzzUniverse(77, ArrivalPattern::kShuffledIds, 120, 120);
  ShardedOptions sharded;
  sharded.num_shards = 3;
  BaseRun base = MakeBaseRun(universe, "polar-op", sharded);
  Assignment reference = base.assignment;
  const auto serial = ReconcileShardBoundary(
      universe.instance, *base.router, base.options, &reference);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  ThreadPool pool(1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::future<void> blocker = pool.Submit([&started, gate] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();

  ReconcileOptions options = base.options;
  options.pool = &pool;
  Assignment got = base.assignment;
  const auto pooled = ReconcileShardBoundary(universe.instance, *base.router,
                                             options, &got);
  release.set_value();
  blocker.get();
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ExpectSamePairs(reference, got, "blocked pool");
  ExpectIdenticalStats(*serial, *pooled, "blocked pool");
}

// ------------------------------------------------------------- stress suite --

/// The production pass on a lent pool against the pre-change serial
/// reconciler (tests/oracles/), which walks the global feasibility radius:
/// same pairs, recovered and dropped counts; one query per boundary
/// worker; and never more boundary objects, cells visited or entries
/// examined. The production boundary set is the oracle's minus objects
/// with no counterpart within their feasible reach, so it shrinks most
/// under the wait-in-place policy. Returns the production stats and the
/// oracle's.
std::pair<ReconcileStats, ReconcileStats> ExpectMatchesSerialOracle(
    const Universe& universe, const std::string& algorithm,
    const ShardedOptions& sharded, ThreadPool* pool,
    const std::string& label) {
  BaseRun base = MakeBaseRun(universe, algorithm, sharded);
  Assignment want = base.assignment;
  const auto oracle = ::ftoa::testing::SerialReconcileShardBoundary(
      universe.instance, *base.router, base.options, &want);
  EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
  ReconcileOptions options = base.options;
  options.pool = pool;
  Assignment got = base.assignment;
  const auto pass = ReconcileShardBoundary(universe.instance, *base.router,
                                           options, &got);
  EXPECT_TRUE(pass.ok()) << pass.status().ToString();
  if (!oracle.ok() || !pass.ok()) return {};
  ExpectSamePairs(want, got, label + " vs serial oracle");
  EXPECT_EQ(oracle->recovered_pairs, pass->recovered_pairs) << label;
  EXPECT_EQ(oracle->capacity_dropped, pass->capacity_dropped) << label;
  EXPECT_LE(pass->boundary_workers, oracle->boundary_workers) << label;
  EXPECT_LE(pass->boundary_tasks, oracle->boundary_tasks) << label;
  if (pass->boundary_tasks > 0) {
    EXPECT_EQ(pass->retrieval.queries, pass->boundary_workers) << label;
  }
  EXPECT_LE(pass->retrieval.cells_visited, oracle->retrieval.cells_visited)
      << label;
  EXPECT_LE(pass->retrieval.candidates_examined,
            oracle->retrieval.candidates_examined)
      << label;
  return {*pass, *oracle};
}

TEST(BoundaryReconcilerSuiteTest, FeasibleReachMatchesSerialOracleOnGreedy) {
  // Sharded simple-greedy runs wait-in-place, whose reach (v * Dr) is far
  // inside the oracle's global radius (v * (maxDr + maxDw)): the pass must
  // recover the same pairs from a smaller boundary while examining fewer
  // entries.
  ThreadPool pool(2);
  int64_t recovered = 0;
  for (const uint64_t seed : {12u, 13u}) {
    const Universe universe =
        MakeFuzzUniverse(seed, ArrivalPattern::kShuffledIds, 160, 160);
    for (const int num_shards : {2, 4}) {
      ShardedOptions sharded;
      sharded.num_shards = num_shards;
      const std::string label = "seed " + std::to_string(seed) +
                                " shards=" + std::to_string(num_shards);
      const auto [pass, oracle] = ExpectMatchesSerialOracle(
          universe, "simple-greedy", sharded, &pool, label);
      recovered += pass.recovered_pairs;
      EXPECT_LT(pass.boundary_workers + pass.boundary_tasks,
                oracle.boundary_workers + oracle.boundary_tasks)
          << label;
      EXPECT_LT(pass.retrieval.candidates_examined,
                oracle.retrieval.candidates_examined)
          << label;
    }
  }
  EXPECT_GT(recovered, 0);
}

TEST(BoundaryReconcilerSuiteTest, CapacityCellsMatchSerialOracleOnPolarOp) {
  // The guided counterpart: polar-op's pass visits only the cells holding
  // a task type its worker's type has capacity toward, so it must recover
  // the same pairs as the oracle's full-disk walk while examining fewer
  // entries.
  ThreadPool pool(2);
  int64_t recovered = 0;
  for (const uint64_t seed : {12u, 13u}) {
    const Universe universe =
        MakeFuzzUniverse(seed, ArrivalPattern::kShuffledIds, 160, 160);
    for (const int num_shards : {2, 4}) {
      ShardedOptions sharded;
      sharded.num_shards = num_shards;
      const std::string label = "seed " + std::to_string(seed) +
                                " shards=" + std::to_string(num_shards);
      const auto [pass, oracle] = ExpectMatchesSerialOracle(
          universe, "polar-op", sharded, &pool, label);
      recovered += pass.recovered_pairs;
      EXPECT_LT(pass.retrieval.candidates_examined,
                oracle.retrieval.candidates_examined)
          << label;
    }
  }
  EXPECT_GT(recovered, 0);
}

/// `universe` with its guide re-solved on `guide_grid` instead of the
/// instance's grid (same slots), from the instance's realized counts typed
/// on that grid.
Universe WithGuideOnGrid(const Universe& universe, const GridSpec& guide_grid) {
  const Instance& instance = universe.instance;
  const SpacetimeSpec spacetime(instance.spacetime().slots(), guide_grid);
  PredictionMatrix prediction(spacetime);
  for (const Worker& w : instance.workers()) {
    const TypeId type = spacetime.TypeOf(w.location, w.start);
    prediction.set_workers_at(type, prediction.workers_at(type) + 1);
  }
  for (const Task& r : instance.tasks()) {
    const TypeId type = spacetime.TypeOf(r.location, r.start);
    prediction.set_tasks_at(type, prediction.tasks_at(type) + 1);
  }
  GuideOptions options;
  options.worker_duration = instance.MaxWorkerDuration();
  options.task_duration = instance.MaxTaskDuration();
  auto guide =
      GuideGenerator(instance.velocity(), options).Generate(prediction);
  EXPECT_TRUE(guide.ok()) << guide.status().ToString();
  Universe out{instance, universe.deps};
  out.deps.guide = std::make_shared<const OfflineGuide>(std::move(*guide));
  return out;
}

TEST(BoundaryReconcilerSuiteTest, GuideOnAnotherGridMatchesSerialOracle) {
  // The type -> cell index maps guide task types to the *store's* cells;
  // with a coarser guide grid a task type spans several store cells, with
  // a finer one several task types share a cell. Either way the pass must
  // reproduce the oracle exactly.
  ThreadPool pool(3);
  int64_t recovered = 0;
  for (const uint64_t seed : {21u, 22u}) {
    const Universe base =
        MakeFuzzUniverse(seed, ArrivalPattern::kBursty, 150, 150);
    ASSERT_EQ(base.instance.spacetime().grid().cells_x(), 4);
    for (const int cells : {2, 7}) {
      const Universe universe =
          WithGuideOnGrid(base, GridSpec(10.0, 10.0, cells, cells));
      ASSERT_GT(universe.deps.guide->matched_pairs(), 0);
      for (const char* algorithm : {"polar-op", "polar-op-g"}) {
        for (const ShardRouterKind router :
             {ShardRouterKind::kGrid, ShardRouterKind::kHash,
              ShardRouterKind::kLoad}) {
          ShardedOptions sharded;
          sharded.num_shards = 3;
          sharded.router = router;
          const std::string label =
              std::string(algorithm) + " seed " + std::to_string(seed) +
              " guide grid " + std::to_string(cells) + "x" +
              std::to_string(cells) + " " + ShardRouterKindName(router);
          recovered += ExpectMatchesSerialOracle(universe, algorithm,
                                                 sharded, &pool, label)
                           .first.recovered_pairs;
        }
      }
    }
  }
  EXPECT_GT(recovered, 0);
}

TEST(BoundaryReconcilerSuiteTest, ZeroPairGuideRecoversNothingAndScansNoCell) {
  // A guide with no matched pairs leaves no capacity: every boundary
  // worker's candidate cell list is empty, so the pass queries once per
  // worker, visits no cell and adds nothing — as the oracle, which walks
  // and rejects every entry, also adds nothing.
  const Universe universe =
      MakeFuzzUniverse(31, ArrivalPattern::kShuffledIds, 120, 120);
  ShardedOptions sharded;
  sharded.num_shards = 4;
  BaseRun base = MakeBaseRun(universe, "polar-op", sharded);
  auto empty = GuideGenerator(universe.instance.velocity(), GuideOptions{})
                   .Generate(PredictionMatrix(universe.instance.spacetime()));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  ASSERT_EQ(empty->matched_pairs(), 0);
  base.options.guide = &*empty;

  Assignment want = base.assignment;
  const auto oracle = ::ftoa::testing::SerialReconcileShardBoundary(
      universe.instance, *base.router, base.options, &want);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  Assignment got = base.assignment;
  const auto pass = ReconcileShardBoundary(universe.instance, *base.router,
                                           base.options, &got);
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  ExpectSamePairs(base.assignment, got, "zero-pair guide");
  ExpectSamePairs(want, got, "zero-pair guide vs oracle");
  EXPECT_GT(pass->boundary_workers, 0);
  EXPECT_GT(pass->boundary_tasks, 0);
  EXPECT_EQ(pass->recovered_pairs, 0);
  EXPECT_EQ(pass->capacity_dropped, 0);
  EXPECT_EQ(pass->retrieval.queries, pass->boundary_workers);
  EXPECT_EQ(pass->retrieval.cells_visited, 0);
  EXPECT_EQ(pass->retrieval.candidates_examined, 0);
  EXPECT_GT(oracle->retrieval.candidates_examined, 0);
}

/// Randomized sweep of the full reconciliation contract: arrival pattern x
/// router x handoff batch size x algorithm, plus rerun determinism and
/// equivalence with the serial oracle on a lent pool.
TEST(BoundaryReconcilerStressTest, RandomizedReconcileSweep) {
  const int iterations = StressIterations(2);
  const std::vector<std::string> algorithms = AllAlgorithmNames();
  const std::vector<ArrivalPattern> patterns = AllArrivalPatterns();
  const std::vector<ShardRouterKind> routers = {ShardRouterKind::kGrid,
                                                ShardRouterKind::kHash,
                                                ShardRouterKind::kLoad};
  ThreadPool pool(3);
  Rng rng(20260731);
  for (int iter = 0; iter < iterations; ++iter) {
    const ArrivalPattern pattern =
        patterns[rng.NextBounded(patterns.size())];
    const uint64_t seed = rng.Next();
    const Universe universe = MakeFuzzUniverse(
        seed, pattern, 40 + static_cast<int>(rng.NextBounded(41)),
        40 + static_cast<int>(rng.NextBounded(41)));
    for (const std::string& name : algorithms) {
      ShardedOptions options;
      options.num_shards = 2 + static_cast<int>(rng.NextBounded(7));
      options.num_threads = 1 + static_cast<int>(rng.NextBounded(4));
      options.router = routers[rng.NextBounded(routers.size())];
      options.handoff_batch =
          1 + static_cast<int>(rng.NextBounded(300));
      const std::string label =
          "iter " + std::to_string(iter) + " " + name + " " +
          ArrivalPatternName(pattern) + " " +
          ShardRouterKindName(options.router) +
          " shards=" + std::to_string(options.num_shards) +
          " threads=" + std::to_string(options.num_threads) +
          " handoff=" + std::to_string(options.handoff_batch);
      ExpectReconcileContract(universe, name, options, label);
      ExpectMatchesSerialOracle(universe, name, options, &pool, label);

      // Rerun determinism of the reconciled path.
      options.algorithm = name;
      options.reconcile = true;
      auto dispatcher = ShardedDispatcher::Create(options, universe.deps);
      ASSERT_TRUE(dispatcher.ok()) << dispatcher.status().ToString();
      auto first = (*dispatcher)->Run(universe.instance);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      auto second = (*dispatcher)->Run(universe.instance);
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      ExpectIdenticalRun(first->assignment, first->trace,
                      second->assignment, second->trace, label + " rerun");
      EXPECT_EQ(first->reconcile.recovered_pairs,
                second->reconcile.recovered_pairs)
          << label;
    }
  }
}

}  // namespace
}  // namespace ftoa
