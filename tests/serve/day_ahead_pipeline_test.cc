// The serving harness's day-ahead pipeline: once a day's last window is
// admitted, the harness's helper thread solves the next day's first due
// inline refresh and builds its arrivals (unless the serving thread claims
// that fill first) while the day's last segment replays, and RunWindows
// joins the job before it returns. What the loop commits must not move:
// the pairs equal tests/oracles/reference_serve_loop's (which solves every
// epoch inline and in order), every due window publishes exactly as the
// serial loop would, and a harness destroyed right after a handoff goes
// away cleanly. The suite runs under TSan with every other test
// (tools/run_sanitizers.sh), which is what checks the helper against the
// replay running beside it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "oracles/reference_serve_loop.h"
#include "serve/service_harness.h"

namespace ftoa {
namespace {

CityProfile SmallCity() {
  CityProfile profile;
  profile.name = "test-city";
  profile.grid_x = 6;
  profile.grid_y = 4;
  profile.slots_per_day = 6;
  profile.history_days = 4;
  profile.workers_per_day = 60;
  profile.tasks_per_day = 70;
  profile.velocity = 3.0;
  profile.task_duration = 1.0;
  profile.worker_duration = 2.0;
  profile.seed = 99;
  return profile;
}

std::unique_ptr<ServiceHarness> MakeHarness(const ServiceOptions& options) {
  auto harness = ServiceHarness::Create(SmallCity(),
                                        LoopedTraceSource::Options{}, options);
  EXPECT_TRUE(harness.ok()) << harness.status();
  return std::move(harness).value();
}

void ExpectMatchesReference(const ServiceHarness& harness,
                            const std::string& context) {
  const auto reference = testing::ReferenceServeLoop(
      SmallCity(), LoopedTraceSource::Options{}, harness.options(),
      harness.windows());
  ASSERT_TRUE(reference.ok()) << reference.status() << " " << context;
  ASSERT_EQ(harness.matched_pairs().size(), reference->size()) << context;
  for (size_t i = 0; i < reference->size(); ++i) {
    ASSERT_EQ(harness.matched_pairs()[i], (*reference)[i])
        << context << " pair " << i;
  }
}

/// The serial loop's publish schedule: every due window publishes (a new
/// epoch, age 0) unless it is in `failed`, and no other window does.
void ExpectSerialPublishSchedule(const ServiceHarness& harness,
                                 const std::vector<int64_t>& failed,
                                 const std::string& context) {
  const int64_t period = harness.options().refresh_period_windows;
  int64_t epoch = 0;
  for (const WindowMetrics& row : harness.windows()) {
    const bool due = row.window % period == 0;
    const bool fails =
        std::find(failed.begin(), failed.end(), row.window) != failed.end();
    if (due && !fails) {
      ++epoch;
      EXPECT_EQ(row.guide_age_windows, 0) << context << " w" << row.window;
    }
    EXPECT_EQ(row.guide_epoch, epoch) << context << " w" << row.window;
  }
}

struct PipelineCase {
  std::string name;
  int windows_per_segment = 0;
  int refresh_period = 0;
  std::string faults;
  std::vector<int64_t> failed_windows;
  int64_t prepared = 0;  ///< Expected prepared refreshes over 24 windows.
};

TEST(DayAheadPipelineTest, MatchesTheReferenceLoopAndTheSerialSchedule) {
  // 24 windows = 4 days of 6. Day 1's prediction, day 0's realized
  // counts, equals the bootstrap prediction here (the trace replays the
  // generator's history and nothing is shed), so day 1 republishes the
  // memo and prepares nothing; days 2 and 3 each adopt a prepared solve.
  const std::vector<PipelineCase> cases = {
      // Day segments, daily refresh.
      {"day segments", 0, 0, "", {}, 2},
      // One-window segments: no replay is long enough to hide a job
      // behind, so nothing is handed off and every solve runs inline.
      {"one-window segments", 1, 0, "", {}, 0},
      // Refresh every 3 windows: the day's first due window is prepared,
      // the mid-day one republishes the memo (same prediction).
      {"period 3", 0, 3, "", {}, 2},
      // Refresh every 4 windows: day 3's due window 20 falls mid-day, so
      // its job is joined two windows into the day.
      {"period 4", 2, 4, "", {}, 2},
      // A flash crowd on the last windows of day 0 inflates the counts
      // day 1 predicts from, so day 1 solves, ahead, too.
      {"flash crowd", 3, 0, "flash@4-5:factor=3", {}, 3},
      // A guide-fail fault on day 2's first window: its prepared guide is
      // discarded and the slot stays stale; day 3 prepares again.
      {"guide-fail at a day boundary", 0, 0, "guide-fail@12-12:count=1",
       {12}, 1},
  };
  for (const PipelineCase& c : cases) {
    ServiceOptions options;
    options.windows_per_segment = c.windows_per_segment;
    options.refresh_period_windows = c.refresh_period;
    options.faults = c.faults;
    auto harness = MakeHarness(options);
    ASSERT_TRUE(harness->RunWindows(24).ok()) << c.name;
    ExpectMatchesReference(*harness, c.name);
    ExpectSerialPublishSchedule(*harness, c.failed_windows, c.name);
    EXPECT_EQ(harness->totals().prepared_refreshes, c.prepared) << c.name;
    EXPECT_EQ(harness->refresher_stats().failed_cycles,
              static_cast<int64_t>(c.failed_windows.size()))
        << c.name;
    EXPECT_GT(harness->totals().matched, 0) << c.name;
    double waited = 0.0;
    for (const WindowMetrics& row : harness->windows()) {
      EXPECT_GE(row.refresh_wait_ms, 0.0) << c.name;
      // Only a due window can wait on the job, and day 0 has no job.
      if (row.window % harness->options().refresh_period_windows != 0 ||
          row.day == 0) {
        EXPECT_EQ(row.refresh_wait_ms, 0.0) << c.name << " w" << row.window;
      }
      waited += row.refresh_wait_ms;
    }
    EXPECT_DOUBLE_EQ(harness->totals().refresh_wait_ms, waited) << c.name;
  }
}

TEST(DayAheadPipelineTest, CallBoundariesDoNotMoveTheOutput) {
  // A call that ends on a day's last window takes the next day's arrivals
  // itself unless the helper has started them, and joins the job; a call
  // that crosses the boundary takes them in StartDay and joins the job at
  // the due window. Calls of 2, 4 and 6 windows (segments of 2, days of
  // 6, so no call rotates a segment early) take both paths and must commit
  // what one long call does.
  ServiceOptions options;
  options.windows_per_segment = 2;
  options.refresh_period_windows = 3;
  options.faults = "flash@4-5:factor=3";
  auto whole = MakeHarness(options);
  ASSERT_TRUE(whole->RunWindows(24).ok());
  EXPECT_EQ(whole->totals().prepared_refreshes, 3);
  for (const int64_t step : {2, 4, 6}) {
    auto stepped = MakeHarness(options);
    for (int64_t done = 0; done < 24; done += step) {
      ASSERT_TRUE(stepped->RunWindows(step).ok()) << step;
    }
    EXPECT_EQ(stepped->matched_pairs(), whole->matched_pairs()) << step;
    EXPECT_EQ(stepped->totals().prepared_refreshes, 3) << step;
    ASSERT_EQ(stepped->windows().size(), whole->windows().size()) << step;
    for (size_t w = 0; w < whole->windows().size(); ++w) {
      EXPECT_EQ(stepped->windows()[w].guide_epoch,
                whole->windows()[w].guide_epoch)
          << step;
      EXPECT_EQ(stepped->windows()[w].admitted, whole->windows()[w].admitted)
          << step;
    }
  }
}

TEST(DayAheadPipelineTest, NothingIsPreparedWhereTheInputIsNotKnownYet) {
  // A learned predictor is refitted only at the day boundary, a background
  // refresh solves on its own thread, and a guide-free algorithm runs no
  // refresh: the job then only builds the next day's arrivals.
  ServiceOptions learned;
  learned.refresh_predictor = "HA";
  ServiceOptions background;
  background.background_refresh = true;
  ServiceOptions greedy;
  greedy.algorithm = "simple-greedy";
  for (const ServiceOptions& options : {learned, background, greedy}) {
    auto harness = MakeHarness(options);
    ASSERT_TRUE(harness->RunWindows(18).ok());
    EXPECT_EQ(harness->totals().prepared_refreshes, 0) << options.algorithm;
    EXPECT_EQ(harness->totals().refresh_wait_ms, 0.0) << options.algorithm;
    EXPECT_GT(harness->totals().admitted, 0) << options.algorithm;
  }
  // A refresh period longer than a day: day 1 has no due window, so its
  // job prepares nothing; day 2's due window 12 is prepared from day 1.
  ServiceOptions sparse;
  sparse.refresh_period_windows = 12;
  auto harness = MakeHarness(sparse);
  ASSERT_TRUE(harness->RunWindows(18).ok());
  EXPECT_EQ(harness->totals().prepared_refreshes, 1);
  ExpectMatchesReference(*harness, "period 12");
}

TEST(DayAheadPipelineTest, DestroyingAfterAJobWasHandedOffJoinsIt) {
  // Each count ends right after a day's last window, or one window into a
  // day whose prepared refresh is still due later, so the harness goes
  // away right after a job was handed off (RunWindows has joined it; the
  // destructor joins whatever a failed call would leave). The flash crowd
  // makes day 1's due window 8 a real solve rather than a memo
  // republish.
  for (const int64_t windows : {6, 12, 7}) {
    ServiceOptions options;
    options.refresh_period_windows = 4;
    options.faults = "flash@4-5:factor=3";
    auto harness = MakeHarness(options);
    ASSERT_TRUE(harness->RunWindows(windows).ok()) << windows;
    harness.reset();
  }
  SUCCEED();
}

}  // namespace
}  // namespace ftoa
