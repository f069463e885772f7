// Heap allocations of a steady-state guide solve and of POLAR-OP's
// decisions, on a Beijing x0.5 day.
//
// A generator keeps its candidate table, flow arenas and per-call scratch
// across Generate calls, so a repeated call may allocate only what the
// returned guide owns: its node vectors and one id range per type and
// side, a constant number of allocations however many types are nonempty.
// A POLAR-OP session sizes its node wait lists and its assignment when it
// opens, so feeding it a whole day allocates nothing.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/guide_generator.h"
#include "core/polar_op.h"
#include "gen/config.h"
#include "gen/looped_trace.h"
#include "model/arrival_stream.h"
#include "util/memory_tracker.h"

namespace ftoa {
namespace {

LoopedTraceSource BeijingHalfSource() {
  LoopedTraceSource::Options trace;
  trace.scale = 0.5;
  return LoopedTraceSource(BeijingProfile(), trace);
}

/// Day 0's realized counts: the serving loop's bootstrap prediction.
PredictionMatrix BeijingHalfDay(const LoopedTraceSource& source) {
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

GuideGenerator BeijingGenerator() {
  const CityProfile profile = BeijingProfile();
  GuideOptions options;
  options.worker_duration = profile.worker_duration;
  options.task_duration = profile.task_duration;
  return GuideGenerator(profile.velocity, options);
}

TEST(GuideAllocationTest, RepeatedCityGenerateAllocatesOnlyTheGuide) {
  const PredictionMatrix prediction = BeijingHalfDay(BeijingHalfSource());
  const GuideGenerator generator = BeijingGenerator();
  ASSERT_TRUE(generator.Generate(prediction).ok());

  const uint64_t before = memory_tracker::Snapshot().total_allocs;
  const auto guide = generator.Generate(prediction);
  const uint64_t allocs = memory_tracker::Snapshot().total_allocs - before;
  ASSERT_TRUE(guide.ok());
  EXPECT_LE(allocs, 40u);
  // The kAuto guide of this day: one compressed component.
  EXPECT_EQ(generator.last_num_components(), 1);
  EXPECT_EQ(generator.last_refresh_stats().pairs_total, 175302);
  EXPECT_EQ(guide->matched_pairs(), 15273);
}

TEST(GuideAllocationTest, PolarOpDayDecisionsAllocateNothing) {
  const LoopedTraceSource source = BeijingHalfSource();
  auto instance = source.FiniteInstance(1);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  auto guide = BeijingGenerator().Generate(BeijingHalfDay(source));
  ASSERT_TRUE(guide.ok());
  PolarOp polar_op(std::make_shared<const OfflineGuide>(std::move(*guide)));
  const std::vector<ArrivalEvent> stream = BuildArrivalStream(*instance);

  auto session = polar_op.StartSession(*instance);
  session->set_collect_dispatches(false);
  const uint64_t before = memory_tracker::Snapshot().total_allocs;
  for (const ArrivalEvent& event : stream) {
    if (event.kind == ObjectKind::kWorker) {
      session->OnWorker(event.index, event.time);
    } else {
      session->OnTask(event.index, event.time);
    }
  }
  const uint64_t allocs = memory_tracker::Snapshot().total_allocs - before;
  EXPECT_EQ(allocs, 0u);
  const SessionResult result = session->Finish();
  EXPECT_GT(stream.size(), 10000u);
  EXPECT_GT(result.assignment.size(), 1000u);
}

}  // namespace
}  // namespace ftoa
