// The retrieval flag's contract: `--retrieval=engine` trades running time,
// never assignments. Every algorithm that scans candidates spatially must
// produce a bit-identical run (assignment, dispatches, matcher counters)
// under the engine and under its historical linear/grid scan, across the
// adversarial arrival patterns and under sharding. The *Stress* suite
// widens the sweep under `ctest -L stress`.

#include "retrieval/mode.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/algorithm_registry.h"
#include "oracles/rebuild_tgoa.h"
#include "sim/sharded_dispatcher.h"
#include "test_util.h"

namespace ftoa {
namespace {

using ftoa::testing::AllArrivalPatterns;
using ftoa::testing::ArrivalPattern;
using ftoa::testing::ArrivalPatternName;
using ftoa::testing::ExpectIdenticalRun;
using ftoa::testing::FuzzUniverse;
using ftoa::testing::MakeFuzzUniverse;
using ftoa::testing::StressIterations;

/// The algorithms whose candidate scans the engine backs (the registry's
/// master-switch set).
const char* const kPortedAlgorithms[] = {"simple-greedy", "tgoa",
                                         "polar-op-g"};

TEST(RetrievalModeTest, NamesParseAndRoundTrip) {
  EXPECT_EQ(AllRetrievalModeNames(),
            (std::vector<std::string>{"linear", "engine"}));
  for (const RetrievalMode mode :
       {RetrievalMode::kLinear, RetrievalMode::kEngine}) {
    const auto parsed = ParseRetrievalMode(RetrievalModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  const auto bogus = ParseRetrievalMode("quadtree");
  ASSERT_FALSE(bogus.ok());
  EXPECT_NE(bogus.status().ToString().find("linear"), std::string::npos);
  EXPECT_NE(bogus.status().ToString().find("engine"), std::string::npos);
}

TEST(RetrievalModeTest, EngineModePopulatesTraceStatsLinearDoesNot) {
  const FuzzUniverse universe =
      MakeFuzzUniverse(3, ArrivalPattern::kShuffledIds);
  for (const char* name : kPortedAlgorithms) {
    AlgorithmDeps deps = universe.deps;
    deps.retrieval = RetrievalMode::kEngine;
    auto engine = CreateAlgorithm(name, deps);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    RunTrace engine_trace;
    (*engine)->Run(universe.instance, &engine_trace);
    EXPECT_GT(engine_trace.retrieval.queries, 0) << name;

    deps.retrieval = RetrievalMode::kLinear;
    auto linear = CreateAlgorithm(name, deps);
    ASSERT_TRUE(linear.ok()) << linear.status().ToString();
    RunTrace linear_trace;
    (*linear)->Run(universe.instance, &linear_trace);
    EXPECT_EQ(linear_trace.retrieval.queries, 0) << name;
  }
}

TEST(RetrievalModeTest, MasterSwitchNeverClobbersExplicitStructSettings) {
  // kLinear at the deps level must leave a per-struct kEngine choice
  // intact — tests and embedders that configure the option structs
  // directly keep what they asked for.
  const FuzzUniverse universe =
      MakeFuzzUniverse(4, ArrivalPattern::kAlternating);
  AlgorithmDeps deps = universe.deps;
  deps.retrieval = RetrievalMode::kLinear;
  deps.tgoa_options.retrieval = RetrievalMode::kEngine;
  auto algorithm = CreateAlgorithm("tgoa", deps);
  ASSERT_TRUE(algorithm.ok());
  RunTrace trace;
  (*algorithm)->Run(universe.instance, &trace);
  EXPECT_GT(trace.retrieval.queries, 0);
}

void ExpectEngineMatchesLinear(const std::string& name,
                               const AlgorithmDeps& base_deps,
                               const Instance& instance,
                               const std::string& label) {
  AlgorithmDeps linear_deps = base_deps;
  linear_deps.retrieval = RetrievalMode::kLinear;
  AlgorithmDeps engine_deps = base_deps;
  engine_deps.retrieval = RetrievalMode::kEngine;

  auto linear = CreateAlgorithm(name, linear_deps);
  auto engine = CreateAlgorithm(name, engine_deps);
  ASSERT_TRUE(linear.ok()) << linear.status().ToString();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  RunTrace linear_trace;
  RunTrace engine_trace;
  const Assignment a = (*linear)->Run(instance, &linear_trace);
  const Assignment b = (*engine)->Run(instance, &engine_trace);
  ExpectIdenticalRun(a, linear_trace, b, engine_trace, label);
  // Object-level deadline feasibility, for the algorithms that promise it
  // (polar-op-g's guide-trust pairs are type-representative feasible only;
  // the sharded suite documents that carve-out).
  if (name != "polar-op-g") {
    EXPECT_TRUE(a.Validate(instance, (*linear)->feasibility_policy()).ok())
        << label;
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
        ExpectEngineMatchesLinear(
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

TEST(RetrievalModeTest, TgoaRebuildModeIsAlsoBitIdentical) {
  // The rebuild-per-arrival oracle enumerates its waiting sets through the
  // pool too; the canonical id-sorted enumeration must hold there as well,
  // and its utility must equal the production session's in both modes.
  for (const uint64_t seed : {5u, 6u}) {
    const FuzzUniverse universe =
        MakeFuzzUniverse(seed, ArrivalPattern::kBursty);
    const std::string label = "tgoa-rebuild seed " + std::to_string(seed);
    TgoaOptions linear_options = universe.deps.tgoa_options;
    linear_options.retrieval = RetrievalMode::kLinear;
    TgoaOptions engine_options = linear_options;
    engine_options.retrieval = RetrievalMode::kEngine;
    testing::RebuildTgoa linear(linear_options);
    testing::RebuildTgoa engine(engine_options);
    RunTrace linear_trace;
    RunTrace engine_trace;
    const Assignment a = linear.Run(universe.instance, &linear_trace);
    const Assignment b = engine.Run(universe.instance, &engine_trace);
    ExpectIdenticalRun(a, linear_trace, b, engine_trace, label);
    EXPECT_GT(engine_trace.retrieval.queries, 0) << label;
    testing::ExpectSamePairs(Tgoa(engine_options).Run(universe.instance), b,
                             label + " production vs oracle");
  }
}

TEST(RetrievalModeTest, ShardedRunsAgreeAcrossModes) {
  // Per-shard sessions on the engine, merged and reconciled, must still
  // equal the linear sharded run — the reconciler itself always runs on
  // the engine, so its stats show up in both traces.
  const FuzzUniverse universe =
      MakeFuzzUniverse(9, ArrivalPattern::kShuffledIds);
  for (const char* name : kPortedAlgorithms) {
    ShardedOptions options;
    options.algorithm = name;
    options.num_shards = 3;
    options.reconcile = true;
    AlgorithmDeps linear_deps = universe.deps;
    linear_deps.retrieval = RetrievalMode::kLinear;
    AlgorithmDeps engine_deps = universe.deps;
    engine_deps.retrieval = RetrievalMode::kEngine;
    auto linear = ShardedDispatcher::Create(options, linear_deps);
    auto engine = ShardedDispatcher::Create(options, engine_deps);
    ASSERT_TRUE(linear.ok()) << linear.status().ToString();
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    auto a = (*linear)->Run(universe.instance);
    auto b = (*engine)->Run(universe.instance);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ExpectIdenticalRun(a->assignment, a->trace, b->assignment, b->trace,
                       std::string("sharded ") + name);
    EXPECT_GT(b->trace.retrieval.queries, 0) << name;
  }
}

// Widened engine-vs-linear sweep: every ported algorithm against every
// arrival pattern across FTOA_STRESS_ITERS seeds (tools/run_stress.sh).
TEST(RetrievalModeStress, EngineMatchesLinearAcrossFuzzUniverses) {
  const int iterations = StressIterations(2);
  for (int iter = 0; iter < iterations; ++iter) {
    const uint64_t seed = 101 + static_cast<uint64_t>(iter);
    for (const ArrivalPattern pattern : AllArrivalPatterns()) {
      const FuzzUniverse universe = MakeFuzzUniverse(seed, pattern, 90, 90);
      for (const char* name : kPortedAlgorithms) {
        ExpectEngineMatchesLinear(
            name, universe.deps, universe.instance,
            std::string(name) + " " + ArrivalPatternName(pattern) +
                " stress seed " + std::to_string(seed));
      }
    }
  }
}

}  // namespace
}  // namespace ftoa
