#include "gen/city_trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace ftoa {
namespace {

CityProfile TinyProfile() {
  CityProfile profile = BeijingProfile();
  profile.grid_x = 8;
  profile.grid_y = 6;
  profile.slots_per_day = 24;
  profile.history_days = 14;
  profile.workers_per_day = 600.0;
  profile.tasks_per_day = 650.0;
  return profile;
}

TEST(CityTraceTest, IntensityMassMatchesDailyTotals) {
  const CityTraceGenerator generator(TinyProfile());
  // Dry weekday: total intensity approximates the configured daily volume.
  const std::vector<double> intensity =
      generator.Intensity(DemandSide::kTasks, /*day=*/1);
  double total = 0.0;
  for (double v : intensity) total += v;
  EXPECT_NEAR(total, 650.0, 650.0 * 0.35);  // Weather may perturb.
}

TEST(CityTraceTest, WeekendsDifferFromWeekdays) {
  const CityTraceGenerator generator(TinyProfile());
  const std::vector<double> weekday =
      generator.Intensity(DemandSide::kTasks, 1);
  const std::vector<double> weekend =
      generator.Intensity(DemandSide::kTasks, 5);
  double weekday_total = 0.0;
  double weekend_total = 0.0;
  for (double v : weekday) weekday_total += v;
  for (double v : weekend) weekend_total += v;
  EXPECT_NE(std::lround(weekday_total), std::lround(weekend_total));
}

TEST(CityTraceTest, SampleCountsAreDeterministic) {
  const CityTraceGenerator a(TinyProfile());
  const CityTraceGenerator b(TinyProfile());
  EXPECT_EQ(a.SampleDayCounts(DemandSide::kWorkers, 3),
            b.SampleDayCounts(DemandSide::kWorkers, 3));
}

TEST(CityTraceTest, HistoryMatchesSampledCounts) {
  const CityTraceGenerator generator(TinyProfile());
  const DemandDataset history = generator.GenerateHistory();
  EXPECT_EQ(history.num_days(), 14);
  EXPECT_EQ(history.slots_per_day(), 24);
  EXPECT_EQ(history.num_cells(), 48);
  const std::vector<int> day3 =
      generator.SampleDayCounts(DemandSide::kTasks, 3);
  for (int slot = 0; slot < history.slots_per_day(); ++slot) {
    for (int cell = 0; cell < history.num_cells(); ++cell) {
      EXPECT_DOUBLE_EQ(
          history.tasks(3, slot, cell),
          day3[static_cast<size_t>(slot) * history.num_cells() + cell]);
    }
  }
}

TEST(CityTraceTest, InstanceConsistentWithHistory) {
  const CityTraceGenerator generator(TinyProfile());
  const auto instance = generator.GenerateInstanceForDay(5);
  ASSERT_TRUE(instance.ok());
  EXPECT_TRUE(instance->Validate().ok());
  // Realized per-type counts equal the sampled counts of the day.
  const auto [workers, tasks] = instance->CountsPerType();
  const std::vector<int> expected_workers =
      generator.SampleDayCounts(DemandSide::kWorkers, 5);
  const std::vector<int> expected_tasks =
      generator.SampleDayCounts(DemandSide::kTasks, 5);
  ASSERT_EQ(workers.size(), expected_workers.size());
  for (size_t k = 0; k < workers.size(); ++k) {
    EXPECT_EQ(workers[k], expected_workers[k]) << "type " << k;
    EXPECT_EQ(tasks[k], expected_tasks[k]) << "type " << k;
  }
}

TEST(CityTraceTest, RejectsDayOutsideHistory) {
  const CityTraceGenerator generator(TinyProfile());
  EXPECT_FALSE(generator.GenerateInstanceForDay(-1).ok());
  EXPECT_FALSE(generator.GenerateInstanceForDay(14).ok());
}

TEST(CityTraceTest, BuiltInProfilesDiffer) {
  const CityProfile beijing = BeijingProfile();
  const CityProfile hangzhou = HangzhouProfile();
  EXPECT_NE(beijing.seed, hangzhou.seed);
  EXPECT_NE(beijing.tasks_per_day, hangzhou.tasks_per_day);
  // Beijing: more tasks than workers; Hangzhou: the reverse (Table 3).
  EXPECT_GT(beijing.tasks_per_day, beijing.workers_per_day);
  EXPECT_LT(hangzhou.tasks_per_day, hangzhou.workers_per_day);
}

TEST(CityTraceTest, ProfilesAreFoundByNameOnly) {
  for (const std::string name : {"beijing", "hangzhou"}) {
    const auto profile = CityProfileByName(name);
    ASSERT_TRUE(profile.ok()) << name;
    EXPECT_EQ(profile->name, name);
  }
  for (const std::string name : {"paris", "hangzou", "Beijing", ""}) {
    const auto missing = CityProfileByName(name);
    ASSERT_FALSE(missing.ok()) << name;
    EXPECT_TRUE(missing.status().IsNotFound());
    EXPECT_NE(missing.status().message().find("valid: beijing, hangzhou"),
              std::string::npos);
  }
}

TEST(CityTraceTest, WeatherIsBoundedAndVaried) {
  const CityTraceGenerator generator(TinyProfile());
  bool saw_rain = false;
  bool saw_dry = false;
  for (int day = 0; day < 14; ++day) {
    for (int slot = 0; slot < 24; ++slot) {
      const WeatherSample& w = generator.WeatherAt(day, slot);
      EXPECT_GT(w.temperature, -20.0);
      EXPECT_LT(w.temperature, 50.0);
      EXPECT_GE(w.precipitation, 0.0);
      (w.precipitation > 0.1 ? saw_rain : saw_dry) = true;
    }
  }
  EXPECT_TRUE(saw_rain);
  EXPECT_TRUE(saw_dry);
}

TEST(CityTraceTest, RushHoursArePeaked) {
  const CityTraceGenerator generator(TinyProfile());
  const std::vector<double> intensity =
      generator.Intensity(DemandSide::kTasks, 1);
  const int cells = 48;
  auto slot_total = [&](int slot) {
    double total = 0.0;
    for (int cell = 0; cell < cells; ++cell) {
      total += intensity[static_cast<size_t>(slot) * cells + cell];
    }
    return total;
  };
  // 24 slots/day: slot 8 = 8am, slot 3 = 3am.
  EXPECT_GT(slot_total(8), 2.0 * slot_total(3));
}

}  // namespace
}  // namespace ftoa
