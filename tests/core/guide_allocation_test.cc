// Heap allocations of a steady-state guide solve. A generator keeps its
// candidate table, flow arenas and per-call scratch across Generate calls,
// so a repeated call on a Beijing x0.5 day may allocate only what the
// returned guide owns: one exact-size node-id list per nonempty worker or
// task type, plus a small constant for the guide's own vectors.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/guide_generator.h"
#include "gen/config.h"
#include "gen/looped_trace.h"
#include "util/memory_tracker.h"

namespace ftoa {
namespace {

PredictionMatrix BeijingHalfDay() {
  LoopedTraceSource::Options trace;
  trace.scale = 0.5;
  const LoopedTraceSource source(BeijingProfile(), trace);
  const std::vector<int> workers =
      source.generator().SampleDayCounts(DemandSide::kWorkers, 0);
  const std::vector<int> tasks =
      source.generator().SampleDayCounts(DemandSide::kTasks, 0);
  PredictionMatrix prediction(source.DaySpacetime());
  for (TypeId type = 0; type < prediction.spacetime().num_types(); ++type) {
    prediction.set_workers_at(type, workers[static_cast<size_t>(type)]);
    prediction.set_tasks_at(type, tasks[static_cast<size_t>(type)]);
  }
  return prediction;
}

TEST(GuideAllocationTest, RepeatedCityGenerateAllocatesOnlyTheGuide) {
  const CityProfile profile = BeijingProfile();
  const PredictionMatrix prediction = BeijingHalfDay();
  GuideOptions options;
  options.worker_duration = profile.worker_duration;
  options.task_duration = profile.task_duration;
  const GuideGenerator generator(profile.velocity, options);
  ASSERT_TRUE(generator.Generate(prediction).ok());

  int64_t nonempty_types = 0;
  for (TypeId type = 0; type < prediction.spacetime().num_types(); ++type) {
    nonempty_types += (prediction.workers_at(type) > 0) +
                      (prediction.tasks_at(type) > 0);
  }
  const uint64_t before = memory_tracker::Snapshot().total_allocs;
  const auto guide = generator.Generate(prediction);
  const uint64_t allocs = memory_tracker::Snapshot().total_allocs - before;
  ASSERT_TRUE(guide.ok());
  EXPECT_LE(allocs, static_cast<uint64_t>(nonempty_types + 64));
  // The kAuto guide of this day: one compressed component.
  EXPECT_EQ(generator.last_num_components(), 1);
  EXPECT_EQ(generator.last_refresh_stats().pairs_total, 175302);
  EXPECT_EQ(guide->matched_pairs(), 15273);
}

}  // namespace
}  // namespace ftoa
