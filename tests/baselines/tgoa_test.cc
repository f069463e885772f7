#include "baselines/tgoa.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "baselines/offline_opt.h"
#include "baselines/simple_greedy.h"
#include "gen/synthetic.h"
#include "oracles/rebuild_tgoa.h"
#include "test_util.h"

namespace ftoa {
namespace {

using ftoa::testing::MakeExample1Instance;

TEST(TgoaTest, ServesColocatedPair) {
  const SpacetimeSpec st(SlotSpec(10.0, 1), GridSpec(10.0, 10.0, 5, 5));
  std::vector<Worker> workers(1);
  workers[0] = {0, {1.0, 1.0}, 0.0, 10.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {1.0, 1.0}, 1.0, 5.0};
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  Tgoa tgoa;
  EXPECT_EQ(tgoa.Run(instance).size(), 1u);
  EXPECT_EQ(tgoa.name(), "TGOA");
}

TEST(TgoaTest, Example1BehavesLikeWaitInPlace) {
  // TGOA cannot relocate workers either, so on Example 1 it serves at most
  // the tasks reachable from waiting workers.
  const Instance instance = MakeExample1Instance();
  Tgoa tgoa;
  const Assignment assignment = tgoa.Run(instance);
  EXPECT_LE(assignment.size(), 2u);
  EXPECT_TRUE(assignment
                  .Validate(instance,
                            FeasibilityPolicy::kDispatchAtAssignmentTime)
                  .ok());
}

TEST(TgoaTest, GreedyFractionZeroIsAllOptimalPhase) {
  const Instance instance = MakeExample1Instance();
  Tgoa all_optimal(TgoaOptions{.greedy_fraction = 0.0});
  Tgoa all_greedy(TgoaOptions{.greedy_fraction = 1.0});
  // Both run to completion and produce valid assignments.
  const Assignment a = all_optimal.Run(instance);
  const Assignment b = all_greedy.Run(instance);
  EXPECT_TRUE(a.Validate(instance,
                         FeasibilityPolicy::kDispatchAtAssignmentTime)
                  .ok());
  EXPECT_TRUE(b.Validate(instance,
                         FeasibilityPolicy::kDispatchAtAssignmentTime)
                  .ok());
}

TEST(TgoaTest, BoundedByOptOnRandomWorkloads) {
  SyntheticConfig config;
  config.num_workers = 300;
  config.num_tasks = 300;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  for (uint64_t seed : {11u, 22u, 33u}) {
    config.seed = seed;
    const auto instance = GenerateSyntheticInstance(config);
    ASSERT_TRUE(instance.ok());
    Tgoa tgoa;
    OfflineOpt opt;
    const Assignment assignment = tgoa.Run(*instance);
    EXPECT_LE(assignment.size(), opt.Run(*instance).size());
    EXPECT_TRUE(assignment
                    .Validate(*instance,
                              FeasibilityPolicy::kDispatchAtAssignmentTime)
                    .ok());
  }
}

TEST(TgoaTest, IncrementalMatchesRebuildOnExample1) {
  const Instance instance = MakeExample1Instance();
  Tgoa incremental;
  testing::RebuildTgoa rebuild;
  testing::ExpectSamePairs(incremental.Run(instance), rebuild.Run(instance),
                           "example 1");
}

TEST(TgoaTest, PairsAreUnchangedAtPerObjectBenchSizes) {
  // TGOA's second phase runs the same matcher as GR: with failed searches
  // sharing a visit stamp its pairs equal those recorded from the build
  // that started a new stamp per search, and the rebuild oracle's.
  struct Pinned {
    int objects;
    size_t matched;
    uint64_t hash;
  };
  for (const Pinned& pinned : {Pinned{1000, 550, 0x3b29c20625edbf5dULL},
                               Pinned{3000, 1738, 0xbc88aefdb5da8fabULL},
                               Pinned{6000, 3511, 0x497c31b49094344dULL}}) {
    const auto instance = GenerateSyntheticInstance(
        testing::PerObjectBenchConfig(pinned.objects));
    ASSERT_TRUE(instance.ok());
    const Assignment assignment = Tgoa().Run(*instance);
    EXPECT_EQ(assignment.size(), pinned.matched) << pinned.objects;
    EXPECT_EQ(testing::PairHash(assignment), pinned.hash) << pinned.objects;
    if (pinned.objects <= 1000) {
      testing::ExpectSamePairs(assignment,
                               testing::RebuildTgoa().Run(*instance),
                               std::to_string(pinned.objects));
    }
  }
}

TEST(TgoaTest, IncrementalMatchesRebuildOnRandomWorkloads) {
  // The carry-across-arrivals matcher must commit exactly the pairs of the
  // rebuild-per-arrival oracle on deterministic instances. The second
  // deadline regime lets tasks outwait workers, so second-phase *worker*
  // arrivals find waiting tasks too (under the default regime mostly
  // tasks do the matching).
  SyntheticConfig config;
  config.num_workers = 250;
  config.num_tasks = 250;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  for (const auto& [task_duration, worker_duration] :
       {std::pair{2.0, 3.0}, std::pair{3.0, 1.0}}) {
    config.task_duration = task_duration;
    config.worker_duration = worker_duration;
    for (uint64_t seed : {3u, 17u, 51u, 202u}) {
      config.seed = seed;
      const auto instance = GenerateSyntheticInstance(config);
      ASSERT_TRUE(instance.ok());
      // Both policies: production searches the engine over the
      // FeasibleReach radius, the oracle a grid index over the global
      // MaxFeasibleDistance radius, so a reach that cut off a feasible
      // pair would change a pair here.
      for (const FeasibilityPolicy policy :
           {FeasibilityPolicy::kDispatchAtAssignmentTime,
            FeasibilityPolicy::kDispatchAtWorkerStart}) {
        TgoaOptions options;
        options.policy = policy;
        const std::string label =
            "seed " + std::to_string(seed) + " Dr " +
            std::to_string(task_duration) +
            (policy == FeasibilityPolicy::kDispatchAtWorkerStart
                 ? " worker-start"
                 : " assignment-time");
        Tgoa incremental(options);
        testing::RebuildTgoa rebuild(options);
        RunTrace inc_trace;
        const Assignment a = incremental.Run(*instance, &inc_trace);
        const Assignment b = rebuild.Run(*instance);
        testing::ExpectSamePairs(a, b, label);
        EXPECT_TRUE(a.Validate(*instance, policy).ok()) << label;
        EXPECT_GT(inc_trace.matcher_augment_searches, 0) << label;
      }
    }
  }
}

TEST(TgoaTest, OptimalPhaseCanBeatPureGreedyLocally) {
  // A configuration where nearest-first greedy makes a regrettable choice:
  // the second-phase guardrail avoids it. w0 arrives first and sits
  // between two tasks; greedy would give the late worker nothing.
  const SpacetimeSpec st(SlotSpec(20.0, 1), GridSpec(20.0, 20.0, 5, 5));
  std::vector<Worker> workers(2);
  workers[0] = {0, {10.0, 1.0}, 0.0, 20.0};
  workers[1] = {1, {2.0, 1.0}, 12.0, 20.0};  // Second phase arrival.
  std::vector<Task> tasks(2);
  tasks[0] = {0, {9.0, 1.0}, 11.0, 8.0};   // Near w0.
  tasks[1] = {1, {3.0, 1.0}, 13.0, 8.0};   // Near w1.
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  Tgoa tgoa;
  EXPECT_EQ(tgoa.Run(instance).size(), 2u);
}

}  // namespace
}  // namespace ftoa
