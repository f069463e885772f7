// The one-backend contract: every algorithm that searches candidates
// spatially runs on the retrieval engine, and must commit exactly what its
// pre-engine reference commits. Each production session is pinned against
// its oracle in tests/oracles/:
//
//   simple-greedy  the paper's linear scan (linear_simple_greedy)
//   tgoa           the rebuild-per-arrival trial on the grid-index pool
//                  (rebuild_tgoa); same pairs, but its matcher counters
//                  are its own
//   polar-op-g     the vector-queue hybrid on the grid-index pool
//                  (vector_queue_polar_op); same pairs and trace
//
// across the adversarial arrival patterns, both feasibility policies, and
// unsharded, one-shard and four-shard runs. The *Stress* suite widens the
// sweep under `ctest -L stress`.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/algorithm_registry.h"
#include "oracles/linear_simple_greedy.h"
#include "oracles/rebuild_tgoa.h"
#include "oracles/vector_queue_polar_op.h"
#include "sim/sharded_dispatcher.h"
#include "test_util.h"

namespace ftoa {
namespace {

using ftoa::testing::AllArrivalPatterns;
using ftoa::testing::ArrivalPattern;
using ftoa::testing::ArrivalPatternName;
using ftoa::testing::ExpectIdenticalRun;
using ftoa::testing::ExpectSamePairs;
using ftoa::testing::FuzzUniverse;
using ftoa::testing::MakeFuzzUniverse;
using ftoa::testing::StressIterations;

/// The algorithms whose candidate searches run on the engine.
const char* const kPortedAlgorithms[] = {"simple-greedy", "tgoa",
                                         "polar-op-g"};

/// The pre-engine reference of a ported algorithm, configured from `deps`
/// exactly as the registry configures the production one.
std::unique_ptr<OnlineAlgorithm> MakeOracle(const std::string& name,
                                            const AlgorithmDeps& deps) {
  if (name == "simple-greedy") {
    return std::make_unique<testing::LinearSimpleGreedy>(
        deps.simple_greedy_options);
  }
  if (name == "tgoa") {
    return std::make_unique<testing::RebuildTgoa>(deps.tgoa_options);
  }
  return std::make_unique<testing::VectorQueueHybridPolarOp>(
      deps.guide, deps.polar_options);
}

/// Production vs oracle equality for `name`: the rebuild trial counts no
/// matcher augment searches, so TGOA compares pairs only.
void ExpectSameOutcome(const std::string& name, const Assignment& production,
                       const RunTrace& production_trace,
                       const Assignment& oracle, const RunTrace& oracle_trace,
                       const std::string& label) {
  if (name == "tgoa") {
    ExpectSamePairs(production, oracle, label);
  } else {
    ExpectIdenticalRun(production, production_trace, oracle, oracle_trace,
                       label);
  }
}

/// Unsharded, then through the sharded dispatcher at one shard and at four
/// reconciled shards: production and oracle must agree each time.
void ExpectProductionMatchesOracle(const std::string& name,
                                   const AlgorithmDeps& deps,
                                   const Instance& instance,
                                   const std::string& label) {
  auto production = CreateAlgorithm(name, deps);
  ASSERT_TRUE(production.ok()) << production.status().ToString();
  const std::unique_ptr<OnlineAlgorithm> oracle = MakeOracle(name, deps);

  RunTrace production_trace;
  RunTrace oracle_trace;
  const Assignment a = (*production)->Run(instance, &production_trace);
  const Assignment b = oracle->Run(instance, &oracle_trace);
  ExpectSameOutcome(name, a, production_trace, b, oracle_trace, label);
  // Object-level deadline feasibility, for the algorithms that promise it
  // (polar-op-g's guide-trust pairs are type-representative feasible only;
  // the sharded suite documents that carve-out).
  if (name != "polar-op-g") {
    EXPECT_TRUE(a.Validate(instance, (*production)->feasibility_policy()).ok())
        << label;
  }

  for (const int shards : {1, 4}) {
    ShardedOptions options;
    options.num_shards = shards;
    options.reconcile = shards > 1;
    ShardedDispatcher production_shards(production->get(), options);
    ShardedDispatcher oracle_shards(oracle.get(), options);
    auto x = production_shards.Run(instance);
    auto y = oracle_shards.Run(instance);
    ASSERT_TRUE(x.ok()) << x.status().ToString();
    ASSERT_TRUE(y.ok()) << y.status().ToString();
    ExpectSameOutcome(name, x->assignment, x->trace, y->assignment, y->trace,
                      label + " shards " + std::to_string(shards));
  }
}

class RetrievalEquivalenceTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(RetrievalEquivalenceTest, EngineRunIsBitIdenticalToLinear) {
  for (const ArrivalPattern pattern : AllArrivalPatterns()) {
    for (const uint64_t seed : {1u, 2u}) {
      const FuzzUniverse universe = MakeFuzzUniverse(seed, pattern);
      // Both policies: the query radius (FeasibleReach) depends on it.
      // polar-op-g's fallback is wait-in-place whatever the knobs say.
      for (const FeasibilityPolicy policy :
           {FeasibilityPolicy::kDispatchAtAssignmentTime,
            FeasibilityPolicy::kDispatchAtWorkerStart}) {
        AlgorithmDeps deps = universe.deps;
        deps.simple_greedy_options.policy = policy;
        deps.tgoa_options.policy = policy;
        ExpectProductionMatchesOracle(
            GetParam(), deps, universe.instance,
            std::string(GetParam()) + " " + ArrivalPatternName(pattern) +
                " seed " + std::to_string(seed) +
                (policy == FeasibilityPolicy::kDispatchAtWorkerStart
                     ? " worker-start"
                     : ""));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PortedAlgorithms, RetrievalEquivalenceTest,
                         ::testing::ValuesIn(kPortedAlgorithms));

TEST(RetrievalModeTest, EngineModePopulatesTraceStatsLinearDoesNot) {
  // The engine's cursors account every query into the run trace; the
  // oracles' scans are deliberately uninstrumented.
  const FuzzUniverse universe =
      MakeFuzzUniverse(3, ArrivalPattern::kShuffledIds);
  for (const char* name : kPortedAlgorithms) {
    auto engine = CreateAlgorithm(name, universe.deps);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    RunTrace engine_trace;
    (*engine)->Run(universe.instance, &engine_trace);
    EXPECT_GT(engine_trace.retrieval.queries, 0) << name;

    RunTrace oracle_trace;
    MakeOracle(name, universe.deps)->Run(universe.instance, &oracle_trace);
    EXPECT_EQ(oracle_trace.retrieval.queries, 0) << name;
  }
}

TEST(RetrievalModeTest, TgoaRebuildModeIsAlsoBitIdentical) {
  // The rebuild trial enumerates its waiting sets through the grid pool
  // over the global radius; the production session's id-sorted
  // enumeration of engine pools over FeasibleReach must give the same
  // pairs, and the engine must have answered queries.
  for (const uint64_t seed : {5u, 6u}) {
    const FuzzUniverse universe =
        MakeFuzzUniverse(seed, ArrivalPattern::kBursty);
    const std::string label = "tgoa-rebuild seed " + std::to_string(seed);
    RunTrace production_trace;
    const Assignment a = Tgoa(universe.deps.tgoa_options)
                             .Run(universe.instance, &production_trace);
    const Assignment b =
        testing::RebuildTgoa(universe.deps.tgoa_options).Run(universe.instance);
    ExpectSamePairs(a, b, label);
    EXPECT_GT(production_trace.retrieval.queries, 0) << label;
    EXPECT_GT(a.size(), 0u) << label;
  }
}

TEST(RetrievalModeTest, ShardedRunsAgreeAcrossModes) {
  // Three reconciled shards on two threads: the shard sessions run
  // concurrently, and the reconciler (always on the engine) sees the same
  // merged assignment from production and oracle sessions.
  const FuzzUniverse universe =
      MakeFuzzUniverse(9, ArrivalPattern::kShuffledIds);
  for (const char* name : kPortedAlgorithms) {
    ShardedOptions options;
    options.num_shards = 3;
    options.num_threads = 2;
    options.reconcile = true;
    auto production = CreateAlgorithm(name, universe.deps);
    ASSERT_TRUE(production.ok()) << production.status().ToString();
    const std::unique_ptr<OnlineAlgorithm> oracle =
        MakeOracle(name, universe.deps);
    auto a = ShardedDispatcher(production->get(), options)
                 .Run(universe.instance);
    auto b = ShardedDispatcher(oracle.get(), options).Run(universe.instance);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectSameOutcome(name, a->assignment, a->trace, b->assignment, b->trace,
                      std::string("sharded ") + name);
    EXPECT_GT(a->trace.retrieval.queries, b->trace.retrieval.queries) << name;
  }
}

// Widened production-vs-oracle sweep: every ported algorithm against every
// arrival pattern across FTOA_STRESS_ITERS seeds (tools/run_stress.sh).
TEST(RetrievalModeStress, EngineMatchesLinearAcrossFuzzUniverses) {
  const int iterations = StressIterations(2);
  for (int iter = 0; iter < iterations; ++iter) {
    const uint64_t seed = 101 + static_cast<uint64_t>(iter);
    for (const ArrivalPattern pattern : AllArrivalPatterns()) {
      const FuzzUniverse universe = MakeFuzzUniverse(seed, pattern, 90, 90);
      for (const char* name : kPortedAlgorithms) {
        ExpectProductionMatchesOracle(
            name, universe.deps, universe.instance,
            std::string(name) + " " + ArrivalPatternName(pattern) +
                " stress seed " + std::to_string(seed));
      }
    }
  }
}

}  // namespace
}  // namespace ftoa
