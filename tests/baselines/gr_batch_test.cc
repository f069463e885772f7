#include "baselines/gr_batch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "baselines/simple_greedy.h"
#include "gen/synthetic.h"
#include "oracles/rebuild_gr_batch.h"
#include "test_util.h"

namespace ftoa {
namespace {

using ftoa::testing::MakeExample1Instance;

TEST(GrBatchTest, MatchesWithinWindows) {
  // One worker and one task in the same window, co-located.
  const SpacetimeSpec st(SlotSpec(10.0, 5), GridSpec(10.0, 10.0, 5, 5));
  std::vector<Worker> workers(1);
  workers[0] = {0, {1.0, 1.0}, 0.2, 10.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {1.0, 1.0}, 0.5, 5.0};
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  GrBatch gr(GrBatchOptions{.window = 2.0});
  const Assignment assignment = gr.Run(instance);
  ASSERT_EQ(assignment.size(), 1u);
  // The match is decided at the first window boundary (t = 2).
  EXPECT_DOUBLE_EQ(assignment.pairs()[0].time, 2.0);
}

TEST(GrBatchTest, BatchingCanLoseTightDeadlines) {
  // The task expires before the first window boundary: GR misses what an
  // immediate matcher would have served.
  const SpacetimeSpec st(SlotSpec(10.0, 2), GridSpec(10.0, 10.0, 5, 5));
  std::vector<Worker> workers(1);
  workers[0] = {0, {1.0, 1.0}, 0.0, 10.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {1.0, 1.0}, 0.1, 1.0};  // Deadline 1.1 < boundary 5.0.
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  GrBatch gr;
  EXPECT_EQ(gr.Run(instance).size(), 0u);
  SimpleGreedy greedy;
  EXPECT_EQ(greedy.Run(instance).size(), 1u);
}

TEST(GrBatchTest, BatchMatchingIsMaximumWithinWindow) {
  // Two workers, two tasks; a greedy nearest rule would match the central
  // worker to the nearest task and strand the other pair, while GR's
  // batch maximum matching serves both.
  const SpacetimeSpec st(SlotSpec(4.0, 1), GridSpec(20.0, 20.0, 5, 5));
  std::vector<Worker> workers(2);
  workers[0] = {0, {5.0, 1.0}, 0.1, 10.0};   // Can reach t0 only.
  workers[1] = {1, {5.9, 1.0}, 0.1, 10.0};   // Can reach both.
  std::vector<Task> tasks(2);
  tasks[0] = {0, {6.2, 1.0}, 0.2, 6.0};   // Deadline 6.2.
  tasks[1] = {1, {10.0, 1.0}, 0.2, 6.0};  // Deadline 6.2; only w1 in range.
  // Feasibility from the boundary t = 4: w0 reaches t0 (d = 1.2, arrive
  // 5.2) but not t1 (d = 5, arrive 9). w1 reaches t0 (d = 0.3) and t1
  // (d = 4.1, arrive 8.1 > 6.2? no — infeasible). Adjust t1 deadline.
  tasks[1].duration = 9.0;  // Deadline 9.2: w1 arrives 8.1, feasible.
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  GrBatch gr(GrBatchOptions{.window = 4.0});
  const Assignment assignment = gr.Run(instance);
  EXPECT_EQ(assignment.size(), 2u);
}

TEST(GrBatchTest, CustomWindowRespected) {
  // With a small window the decision happens earlier.
  const SpacetimeSpec st(SlotSpec(10.0, 2), GridSpec(10.0, 10.0, 5, 5));
  std::vector<Worker> workers(1);
  workers[0] = {0, {1.0, 1.0}, 0.0, 10.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {1.0, 1.0}, 0.1, 1.0};
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  GrBatch gr(GrBatchOptions{.window = 0.5});
  const Assignment assignment = gr.Run(instance);
  ASSERT_EQ(assignment.size(), 1u);
  EXPECT_DOUBLE_EQ(assignment.pairs()[0].time, 0.5);
}

TEST(GrBatchTest, Example1ProducesValidAssignment) {
  const Instance instance = MakeExample1Instance();
  GrBatch gr;
  const Assignment assignment = gr.Run(instance);
  // Wait-in-place with 5-minute windows: tight Dr = 2 tasks mostly expire
  // before a boundary arrives.
  EXPECT_LE(assignment.size(), 2u);
}

TEST(GrBatchTest, TasksCarryAcrossWindows) {
  // A task with a long deadline is matched in a later window when a worker
  // finally appears.
  const SpacetimeSpec st(SlotSpec(10.0, 5), GridSpec(10.0, 10.0, 5, 5));
  std::vector<Worker> workers(1);
  workers[0] = {0, {1.0, 1.0}, 5.5, 10.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {1.0, 1.0}, 0.5, 9.0};  // Deadline 9.5.
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  GrBatch gr(GrBatchOptions{.window = 2.0});
  const Assignment assignment = gr.Run(instance);
  ASSERT_EQ(assignment.size(), 1u);
  EXPECT_DOUBLE_EQ(assignment.pairs()[0].time, 6.0);
}

TEST(GrBatchTest, IncrementalMatchesRebuildOnExample1) {
  const Instance instance = MakeExample1Instance();
  GrBatch incremental;
  testing::RebuildGrBatch rebuild;
  EXPECT_EQ(incremental.Run(instance).size(), rebuild.Run(instance).size());
}

TEST(GrBatchTest, IncrementalMatchesRebuildOnRandomWorkloads) {
  // Carrying the matcher across windows (inserting only the new arrivals'
  // nodes/edges and re-augmenting for them) delivers the same total
  // utility as the oracle that rebuilds a Hopcroft-Karp instance per
  // window on these instances; tests/oracles/rebuild_gr_batch.h says why
  // that is not so on every instance. Default (wait-in-place) policy only:
  // the oracle's v * maxDr radius is exact there and nowhere else.
  SyntheticConfig config;
  config.num_workers = 300;
  config.num_tasks = 300;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  for (uint64_t seed : {5u, 29u, 71u, 113u}) {
    config.seed = seed;
    const auto instance = GenerateSyntheticInstance(config);
    ASSERT_TRUE(instance.ok());
    GrBatch incremental;
    testing::RebuildGrBatch rebuild;
    const Assignment a = incremental.Run(*instance);
    const Assignment b = rebuild.Run(*instance);
    EXPECT_EQ(a.size(), b.size()) << "seed " << seed;
    // Every committed pair must satisfy the boundary-departure rule
    // (mirrors AssignmentsFeasibleFromBoundary).
    for (const MatchedPair& pair : a.pairs()) {
      const Worker& w = instance->worker(pair.worker);
      const Task& r = instance->task(pair.task);
      EXPECT_LE(w.start, pair.time);
      EXPECT_LE(r.start, pair.time);
      const double arrival =
          pair.time +
          TravelTime(w.location, r.location, instance->velocity());
      EXPECT_LE(arrival, r.Deadline() + 1e-9);
      EXPECT_LT(r.start, w.Deadline());
    }
  }
}

TEST(GrBatchTest, PairsAreUnchangedAtPerObjectBenchSizes) {
  // The matcher's failed searches share one visit stamp, which must only
  // prune, never redirect: the pairs equal those recorded from the build
  // that started a new stamp per search (same instances as
  // BM_GrPerObject). The rebuild oracle is no pin here: on these instances
  // it commits fewer pairs (607 at 1k) under either stamp rule, since its
  // per-window Hopcroft-Karp breaks ties differently and the windows
  // compound; IncrementalMatchesRebuildOnRandomWorkloads pins the count.
  struct Pinned {
    int objects;
    size_t matched;
    uint64_t hash;
  };
  for (const Pinned& pinned : {Pinned{1000, 617, 0x616d1d752ee77234ULL},
                               Pinned{3000, 1982, 0xb4303f4c00ec38eaULL},
                               Pinned{6000, 4051, 0xcf6aa8e3f3609d57ULL}}) {
    const auto instance = GenerateSyntheticInstance(
        testing::PerObjectBenchConfig(pinned.objects));
    ASSERT_TRUE(instance.ok());
    const Assignment assignment = GrBatch().Run(*instance);
    EXPECT_EQ(assignment.size(), pinned.matched) << pinned.objects;
    EXPECT_EQ(testing::PairHash(assignment), pinned.hash) << pinned.objects;
  }
}

TEST(GrBatchTest, WorkerStartPolicyReachesPastTheTaskDurationRadius) {
  // Under kDispatchAtWorkerStart the worker is credited with moving since
  // Sw, so a task arriving 2 time units later is reachable from
  // v * (Dr + Sr - Sw) = 3 away, well past v * maxDr = 1. Wait-in-place
  // GR cannot serve it (it departs at the boundary, 2 + 2.5 > 3).
  const SpacetimeSpec st(SlotSpec(8.0, 2), GridSpec(10.0, 10.0, 10, 10));
  std::vector<Worker> workers(1);
  workers[0] = {0, {1.0, 1.0}, 0.0, 10.0};
  std::vector<Task> tasks(1);
  tasks[0] = {0, {3.5, 1.0}, 2.0, 1.0};  // d = 2.5.
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));
  GrBatch worker_start(GrBatchOptions{
      .window = 1.0, .policy = FeasibilityPolicy::kDispatchAtWorkerStart});
  EXPECT_EQ(worker_start.Run(instance).size(), 1u);
  GrBatch wait_in_place(GrBatchOptions{.window = 1.0});
  EXPECT_EQ(wait_in_place.Run(instance).size(), 0u);
}

/// Unbounded scan of GR's leftovers: after each window's commit, no worker
/// and task still pooled may pass GR's edge test at that boundary. Such a
/// pair would be a length-1 augmenting path, which a maximum matching of
/// the full window graph never leaves; a candidate radius that is too small
/// leaves them. Scans every pair, with no radius. Returns the first
/// violation found, or an empty string.
std::string FirstExposedFeasiblePair(const Instance& instance,
                                     const Assignment& assignment,
                                     FeasibilityPolicy policy) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> worker_matched(
      static_cast<size_t>(instance.num_workers()), inf);
  std::vector<double> task_matched(static_cast<size_t>(instance.num_tasks()),
                                   inf);
  for (const MatchedPair& pair : assignment.pairs()) {
    worker_matched[static_cast<size_t>(pair.worker)] = pair.time;
    task_matched[static_cast<size_t>(pair.task)] = pair.time;
  }
  // GrBatch's default window and window count.
  const double window = 0.25 * instance.spacetime().slots().slot_duration();
  const int num_windows =
      static_cast<int>(std::ceil((instance.spacetime().slots().horizon() +
                                  instance.MaxTaskDuration()) /
                                 window)) +
      1;
  const double v = instance.velocity();
  for (int k = 1; k <= num_windows; ++k) {
    const double boundary = k * window;
    for (const Worker& w : instance.workers()) {
      if (w.start > boundary || w.Deadline() <= boundary ||
          worker_matched[static_cast<size_t>(w.id)] <= boundary) {
        continue;
      }
      for (const Task& r : instance.tasks()) {
        if (r.start > boundary || r.Deadline() < boundary ||
            task_matched[static_cast<size_t>(r.id)] <= boundary ||
            !(r.start < w.Deadline())) {
          continue;
        }
        const bool feasible =
            policy == FeasibilityPolicy::kDispatchAtAssignmentTime
                ? boundary + Distance(r.location, w.location) / v <=
                      r.Deadline()
                : CanServe(w, r, v, policy);
        if (feasible) {
          return "worker " + std::to_string(w.id) + " and task " +
                 std::to_string(r.id) + " both pooled after boundary " +
                 std::to_string(boundary);
        }
      }
    }
  }
  return "";
}

TEST(GrBatchTest, LeavesNoFeasiblePairExposedUnderBothPolicies) {
  // Workers wait up to 3 slots against Dr = 1, so under worker-start a
  // task arriving late is reachable from up to 4x v * maxDr, which is
  // small against the 30x30 region.
  SyntheticConfig config;
  config.num_workers = 300;
  config.num_tasks = 300;
  config.grid_x = 30;
  config.grid_y = 30;
  config.num_slots = 8;
  config.velocity = 1.5;
  config.task_duration = 1.0;
  for (const FeasibilityPolicy policy :
       {FeasibilityPolicy::kDispatchAtAssignmentTime,
        FeasibilityPolicy::kDispatchAtWorkerStart}) {
    const char* name = policy == FeasibilityPolicy::kDispatchAtWorkerStart
                           ? "worker-start"
                           : "assignment-time";
    for (uint64_t seed : {5u, 29u, 71u, 113u}) {
      config.seed = seed;
      const auto instance = GenerateSyntheticInstance(config);
      ASSERT_TRUE(instance.ok());
      GrBatch gr(GrBatchOptions{.policy = policy});
      const Assignment assignment = gr.Run(*instance);
      EXPECT_GT(assignment.size(), 0u) << name << " seed " << seed;
      EXPECT_EQ(FirstExposedFeasiblePair(*instance, assignment, policy), "")
          << name << " seed " << seed;
      for (const MatchedPair& pair : assignment.pairs()) {
        EXPECT_TRUE(CanServe(instance->worker(pair.worker),
                             instance->task(pair.task), instance->velocity(),
                             policy))
            << name << " seed " << seed;
      }
    }
  }
}

// Property: GR's assignments always satisfy the wait-in-place arrival rule
// (decision-time departure) and never exceed min(|W|, |R|).
class GrBatchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GrBatchPropertyTest, AssignmentsFeasibleFromBoundary) {
  SyntheticConfig config;
  config.num_workers = 300;
  config.num_tasks = 300;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  config.seed = GetParam() * 3 + 11;
  const auto instance = GenerateSyntheticInstance(config);
  ASSERT_TRUE(instance.ok());
  GrBatch gr;
  const Assignment assignment = gr.Run(*instance);
  EXPECT_LE(assignment.size(),
            std::min(instance->num_workers(), instance->num_tasks()));
  for (const MatchedPair& pair : assignment.pairs()) {
    const Worker& w = instance->worker(pair.worker);
    const Task& r = instance->task(pair.task);
    // Both objects had arrived by the decision time.
    EXPECT_LE(w.start, pair.time);
    EXPECT_LE(r.start, pair.time);
    // Departing at the boundary still meets the task deadline.
    const double arrival =
        pair.time +
        TravelTime(w.location, r.location, instance->velocity());
    EXPECT_LE(arrival, r.Deadline() + 1e-9);
    // Condition (1) of Definition 4.
    EXPECT_LT(r.start, w.Deadline());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrBatchPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace ftoa
