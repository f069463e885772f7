#include "gen/looped_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace ftoa {
namespace {

CityProfile SmallProfile() {
  CityProfile profile;
  profile.name = "test-city";
  profile.grid_x = 6;
  profile.grid_y = 4;
  profile.slots_per_day = 6;
  profile.history_days = 4;
  profile.workers_per_day = 120.0;
  profile.tasks_per_day = 130.0;
  profile.seed = 77;
  return profile;
}

TEST(LoopedTraceTest, DayArrivalsAreOnTheAbsoluteAxisAndOrdered) {
  LoopedTraceSource::Options scaled_options;
  scaled_options.scale = 3.0;
  const LoopedTraceSource plain(SmallProfile());
  const LoopedTraceSource scaled(SmallProfile(), scaled_options);
  // Day 5 loops back to source day 1 (history_days = 4).
  for (const LoopedTraceSource* source : {&plain, &scaled}) {
    for (const int64_t day : {0, 1, 5}) {
      auto arrivals = source->ArrivalsForDay(day);
      ASSERT_TRUE(arrivals.ok()) << arrivals.status();
      ASSERT_FALSE(arrivals.value().empty());
      const double lo = static_cast<double>(day) * source->day_horizon();
      const double hi = lo + source->day_horizon();
      for (const StreamArrival& a : arrivals.value()) {
        EXPECT_GE(a.time, lo);
        EXPECT_LT(a.time, hi);
        EXPECT_EQ(a.day, day);
      }
      // The full (time, kind, source_id) order: exactly what a comparison
      // sort with the shared comparator produces.
      std::vector<StreamArrival> sorted = arrivals.value();
      std::sort(sorted.begin(), sorted.end(), ArrivesBefore);
      for (size_t i = 0; i < sorted.size(); ++i) {
        const StreamArrival& got = arrivals.value()[i];
        ASSERT_EQ(got.time, sorted[i].time) << "day " << day << " at " << i;
        ASSERT_EQ(got.kind, sorted[i].kind) << "day " << day << " at " << i;
        ASSERT_EQ(got.source_id, sorted[i].source_id)
            << "day " << day << " at " << i;
        if (i > 0) {
          ASSERT_TRUE(ArrivesBefore(arrivals.value()[i - 1], got));
        }
      }
    }
  }
}

TEST(LoopedTraceTest, LoopRepeatsSourceDaysShiftedInTime) {
  LoopedTraceSource::Options options;
  options.loop_days = 2;
  const LoopedTraceSource source(SmallProfile(), options);
  const auto day0 = source.ArrivalsForDay(0);
  const auto day2 = source.ArrivalsForDay(2);  // Same source day as 0.
  ASSERT_TRUE(day0.ok() && day2.ok());
  ASSERT_EQ(day0.value().size(), day2.value().size());
  const double shift = 2.0 * source.day_horizon();
  for (size_t i = 0; i < day0.value().size(); ++i) {
    const StreamArrival& a = day0.value()[i];
    const StreamArrival& b = day2.value()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.source_id, b.source_id);
    EXPECT_DOUBLE_EQ(a.time + shift, b.time);
    EXPECT_DOUBLE_EQ(a.location.x, b.location.x);
    EXPECT_DOUBLE_EQ(a.location.y, b.location.y);
  }
}

TEST(LoopedTraceTest, FillReusesOneBufferAcrossDays) {
  // The serving harness refills one buffer every day: whatever the buffer
  // held before (a longer or a shorter day), it ends holding exactly what
  // ArrivalsForDay returns.
  const LoopedTraceSource source(SmallProfile());
  std::vector<StreamArrival> buffer;
  for (const int64_t day : {0, 1, 2, 1, 3}) {
    ASSERT_TRUE(source.FillArrivalsForDay(day, &buffer).ok()) << day;
    const auto expected = source.ArrivalsForDay(day);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(buffer.size(), expected->size()) << day;
    for (size_t i = 0; i < buffer.size(); ++i) {
      EXPECT_EQ(buffer[i].kind, (*expected)[i].kind) << day;
      EXPECT_EQ(buffer[i].time, (*expected)[i].time) << day;
      EXPECT_EQ(buffer[i].location, (*expected)[i].location) << day;
      EXPECT_EQ(buffer[i].duration, (*expected)[i].duration) << day;
      EXPECT_EQ(buffer[i].source_id, (*expected)[i].source_id) << day;
      EXPECT_EQ(buffer[i].day, day);
    }
  }
  EXPECT_TRUE(source.FillArrivalsForDay(-1, &buffer).IsOutOfRange());
}

TEST(LoopedTraceTest, DeterministicAcrossSources) {
  const LoopedTraceSource a(SmallProfile());
  const LoopedTraceSource b(SmallProfile());
  const auto lhs = a.ArrivalsForDay(3);
  const auto rhs = b.ArrivalsForDay(3);
  ASSERT_TRUE(lhs.ok() && rhs.ok());
  ASSERT_EQ(lhs.value().size(), rhs.value().size());
  for (size_t i = 0; i < lhs.value().size(); ++i) {
    EXPECT_DOUBLE_EQ(lhs.value()[i].time, rhs.value()[i].time);
    EXPECT_EQ(lhs.value()[i].source_id, rhs.value()[i].source_id);
  }
}

TEST(LoopedTraceTest, ScaleGrowsArrivalVolume) {
  LoopedTraceSource::Options big;
  big.scale = 3.0;
  const LoopedTraceSource base(SmallProfile());
  const LoopedTraceSource scaled(SmallProfile(), big);
  const auto small = base.ArrivalsForDay(0);
  const auto large = scaled.ArrivalsForDay(0);
  ASSERT_TRUE(small.ok() && large.ok());
  // Poisson draws: ~3x in expectation; 2x is a safe lower bound at this n.
  EXPECT_GT(large.value().size(), 2 * small.value().size());
}

TEST(LoopedTraceTest, FiniteInstanceConcatenatesDaysAndValidates) {
  const LoopedTraceSource source(SmallProfile());
  auto instance = source.FiniteInstance(3);
  ASSERT_TRUE(instance.ok()) << instance.status();
  EXPECT_TRUE(instance.value().Validate().ok());
  EXPECT_EQ(instance.value().spacetime().num_slots(), 18);
  EXPECT_DOUBLE_EQ(instance.value().spacetime().slots().horizon(), 18.0);

  // Same objects as the per-day stream, in the same per-side order.
  size_t expected = 0;
  double max_start = 0.0;
  for (int day = 0; day < 3; ++day) {
    const auto arrivals = source.ArrivalsForDay(day);
    ASSERT_TRUE(arrivals.ok());
    expected += arrivals.value().size();
    for (const StreamArrival& a : arrivals.value()) {
      max_start = std::max(max_start, a.time);
    }
  }
  EXPECT_EQ(instance.value().num_workers() + instance.value().num_tasks(),
            expected);
  EXPECT_LT(max_start, 18.0);

  EXPECT_TRUE(source.FiniteInstance(0).status().IsInvalidArgument());
}

TEST(LoopedTraceTest, RejectsNegativeDay) {
  const LoopedTraceSource source(SmallProfile());
  EXPECT_TRUE(source.ArrivalsForDay(-1).status().IsOutOfRange());
}

}  // namespace
}  // namespace ftoa
