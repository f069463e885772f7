#include "baselines/simple_greedy.h"

#include <gtest/gtest.h>

#include <string>

#include "gen/config.h"
#include "gen/looped_trace.h"
#include "gen/synthetic.h"
#include "model/arrival_stream.h"
#include "oracles/linear_simple_greedy.h"
#include "test_util.h"

namespace ftoa {
namespace {

using ftoa::testing::MakeExample1Instance;

TEST(SimpleGreedyTest, Example1WaitInPlaceMatchesOnlyR1) {
  // Under literal wait-in-place semantics, only r1 is served: w1 is 2 units
  // away with Dr = 2. Every later task appears farther than Dr from all
  // waiting workers (see DESIGN.md on the paper's Example 2 narrative).
  const Instance instance = MakeExample1Instance();
  SimpleGreedy greedy;
  const Assignment assignment = greedy.Run(instance);
  EXPECT_EQ(assignment.size(), 1u);
  EXPECT_EQ(assignment.MatchOfTask(0), 0);  // w1 -> r1.
  EXPECT_TRUE(assignment
                  .Validate(instance,
                            FeasibilityPolicy::kDispatchAtAssignmentTime)
                  .ok());
}

TEST(SimpleGreedyTest, Definition4PolicyMatchesMore) {
  // With the paper's Definition 4 predicate (pre-movement credit), greedy
  // can serve the slot-1 tasks from the earlier top-right workers.
  const Instance instance = MakeExample1Instance();
  SimpleGreedy greedy(SimpleGreedyOptions{
      .policy = FeasibilityPolicy::kDispatchAtWorkerStart});
  const Assignment assignment = greedy.Run(instance);
  EXPECT_GT(assignment.size(), 1u);
  EXPECT_TRUE(assignment
                  .Validate(instance,
                            FeasibilityPolicy::kDispatchAtWorkerStart)
                  .ok());
}

TEST(SimpleGreedyTest, PicksNearestFeasible) {
  const SpacetimeSpec st(SlotSpec(10.0, 1), GridSpec(10.0, 10.0, 5, 5));
  std::vector<Worker> workers(2);
  workers[0] = {0, {0.0, 0.0}, 0.0, 10.0};
  workers[1] = {1, {3.0, 0.0}, 0.0, 10.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {4.0, 0.0}, 1.0, 5.0};
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  SimpleGreedy greedy;
  const Assignment assignment = greedy.Run(instance);
  ASSERT_EQ(assignment.size(), 1u);
  EXPECT_EQ(assignment.MatchOfTask(0), 1);  // The closer worker.
}

TEST(SimpleGreedyTest, ExpiredWorkersNotMatched) {
  const SpacetimeSpec st(SlotSpec(10.0, 1), GridSpec(10.0, 10.0, 5, 5));
  std::vector<Worker> workers(1);
  workers[0] = {0, {0.0, 0.0}, 0.0, 1.0};  // Gone by t = 1.
  std::vector<Task> tasks(1);
  tasks[0] = {0, {0.0, 0.0}, 5.0, 5.0};
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  SimpleGreedy greedy;
  EXPECT_EQ(greedy.Run(instance).size(), 0u);
}

TEST(SimpleGreedyTest, WorkerArrivingAfterTaskCanMatch) {
  const SpacetimeSpec st(SlotSpec(10.0, 1), GridSpec(10.0, 10.0, 5, 5));
  std::vector<Worker> workers(1);
  workers[0] = {0, {1.0, 0.0}, 2.0, 5.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {0.0, 0.0}, 0.0, 4.0};  // Deadline t = 4.
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  SimpleGreedy greedy;
  // Worker departs at t = 2, arrives at t = 3 <= 4.
  EXPECT_EQ(greedy.Run(instance).size(), 1u);
}

// Property: the paper's linear scan (the oracle) and the production
// session on the shared retrieval engine produce identical assignments
// under either policy (they implement the same rule with the same
// (distance, id) tie-break).
// The linear scan has no radius at all, so this also pins the engine's
// FeasibleReach radius: a reach that cut off a feasible pair would change
// a pair here.
class SimpleGreedyEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimpleGreedyEquivalenceTest, IndexedVariantMatchesLinearScan) {
  SyntheticConfig config;
  config.num_workers = 400;
  config.num_tasks = 400;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  config.seed = GetParam() * 13 + 5;
  const auto instance = GenerateSyntheticInstance(config);
  ASSERT_TRUE(instance.ok());
  for (const FeasibilityPolicy policy :
       {FeasibilityPolicy::kDispatchAtAssignmentTime,
        FeasibilityPolicy::kDispatchAtWorkerStart}) {
    const std::string label =
        "seed " + std::to_string(GetParam()) +
        (policy == FeasibilityPolicy::kDispatchAtWorkerStart
             ? " worker-start"
             : " assignment-time");
    testing::LinearSimpleGreedy linear(SimpleGreedyOptions{.policy = policy});
    SimpleGreedy indexed(SimpleGreedyOptions{.policy = policy});
    const Assignment a = linear.Run(*instance);
    const Assignment b = indexed.Run(*instance);
    testing::ExpectSamePairs(a, b, label);
    EXPECT_GT(a.size(), 0u) << label;
    EXPECT_TRUE(a.Validate(*instance, policy).ok()) << label;
    EXPECT_TRUE(b.Validate(*instance, policy).ok()) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimpleGreedyEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 9));

// The engine session expires both pools at every decision. Every object
// left unmatched was pooled at arrival and either expired or still waits,
// so the pools hold only entries with deadline >= the last decision time
// exactly when ExpireBefore erased every unmatched object whose deadline
// is earlier. The run also stays pair-for-pair equal to the linear scan.
void ExpectPoolsHoldOnlyLiveEntries(const Instance& instance,
                                    const std::string& label) {
  const std::vector<ArrivalEvent> stream = BuildArrivalStream(instance);
  ASSERT_FALSE(stream.empty()) << label;
  const double last_time = stream.back().time;

  SimpleGreedy engine;
  testing::LinearSimpleGreedy linear;
  RunTrace run_trace;
  const Assignment assignment = engine.Run(instance, &run_trace);
  testing::ExpectSamePairs(assignment, linear.Run(instance), label);

  int64_t dead_unmatched = 0;
  for (const Worker& w : instance.workers()) {
    if (!assignment.IsWorkerMatched(w.id) && w.Deadline() < last_time) {
      ++dead_unmatched;
    }
  }
  for (const Task& r : instance.tasks()) {
    if (!assignment.IsTaskMatched(r.id) && r.Deadline() < last_time) {
      ++dead_unmatched;
    }
  }
  EXPECT_GT(dead_unmatched, 0) << label;
  EXPECT_EQ(run_trace.retrieval.expired, dead_unmatched) << label;
}

TEST(SimpleGreedyTest, EnginePoolsHoldOnlyLiveEntries) {
  // Example 1's last arrivals are tasks: r2 and r3 expire at task
  // decisions, after the last worker arrived.
  ExpectPoolsHoldOnlyLiveEntries(MakeExample1Instance(), "Example 1");
  LoopedTraceSource::Options trace;
  trace.scale = 0.1;
  const auto day =
      LoopedTraceSource(HangzhouProfile(), trace).FiniteInstance(1);
  ASSERT_TRUE(day.ok()) << day.status().ToString();
  ExpectPoolsHoldOnlyLiveEntries(*day, "Hangzhou x0.1 day");
}

}  // namespace
}  // namespace ftoa
