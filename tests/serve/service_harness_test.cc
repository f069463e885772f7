#include "serve/service_harness.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/config.h"
#include "oracles/reference_serve_loop.h"
#include "sim/metrics.h"

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

TEST(ServiceHarnessTest, EveryWindowReportsMetrics) {
  auto harness = MakeHarness(ServiceOptions{});
  ASSERT_TRUE(harness->RunWindows(12).ok());

  ASSERT_EQ(harness->windows().size(), 12u);
  int64_t admitted = 0;
  for (size_t i = 0; i < harness->windows().size(); ++i) {
    const WindowMetrics& window = harness->windows()[i];
    EXPECT_EQ(window.window, static_cast<int64_t>(i));
    EXPECT_EQ(window.day, static_cast<int64_t>(i) / 6);
    EXPECT_GE(window.live_objects, 0);
    EXPECT_GE(window.guide_epoch, 1);  // Bootstrap refresh at window 0.
    admitted += window.admitted;
  }
  EXPECT_GT(admitted, 0);
  EXPECT_EQ(admitted, harness->totals().admitted);
  EXPECT_GT(harness->totals().matched, 0);
  EXPECT_EQ(harness->totals().segments, 2);  // One per day by default.
  EXPECT_EQ(harness->totals().shed, 0);      // No caps, no faults.
}

TEST(ServiceHarnessTest, EvictionKeepsMemoryBoundedAndNeverFreesLive) {
  auto harness = MakeHarness(ServiceOptions{});
  // Step window by window so the live/evicted invariants are checked at
  // every boundary, not just at the end.
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(harness->RunWindows(1).ok());
    EXPECT_EQ(harness->totals().evicted_live, 0);
    EXPECT_LE(harness->live_objects(), harness->store_size());
  }
  EXPECT_GT(harness->totals().evictions, 0);
  // The store holds only the live tail, not the whole history.
  EXPECT_LT(harness->store_size(), harness->totals().admitted / 2);
  EXPECT_LT(harness->totals().store_peak, harness->totals().admitted);
}

TEST(ServiceHarnessTest, EvictionIsAssignmentInert) {
  // The bit-identity property: the evicting harness commits exactly the
  // pairs of the never-evicting reference loop on the same finite stream
  // (tests/oracles/reference_serve_loop keeps every admitted record). One
  // window per segment puts an expiry-driven free between every pair of
  // rotations.
  ServiceOptions options;
  options.windows_per_segment = 1;
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(18).ok());
  const auto reference = testing::ReferenceServeLoop(
      SmallCity(), LoopedTraceSource::Options{}, harness->options(),
      harness->windows());
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(harness->matched_pairs().size(), reference->size());
  for (size_t i = 0; i < reference->size(); ++i) {
    EXPECT_EQ(harness->matched_pairs()[i], (*reference)[i]) << "pair " << i;
  }
  // Only the memory footprint differs: the harness freed what expired.
  EXPECT_GT(harness->totals().evictions, 0);
  EXPECT_LT(harness->store_size(), harness->totals().admitted);
}

TEST(ServiceHarnessTest, ShedsOnlyUnderInjectedOverload) {
  ServiceOptions options;
  options.max_queue_depth = 80;  // Far above the base per-window load.
  options.faults = "flash@7-8:factor=6";
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(12).ok());

  for (const WindowMetrics& window : harness->windows()) {
    const bool in_flash = window.window >= 7 && window.window <= 8;
    if (!in_flash) {
      EXPECT_EQ(window.shed, 0) << "window " << window.window;
      EXPECT_FALSE(window.overloaded) << "window " << window.window;
      EXPECT_EQ(window.flash_clones, 0);
    } else {
      EXPECT_GT(window.flash_clones, 0);
    }
  }
  EXPECT_GT(harness->totals().shed, 0);  // The flash crowd overflowed.
}

TEST(ServiceHarnessTest, MaxLiveObjectsCapsAdmission) {
  ServiceOptions options;
  options.max_live_objects = 25;
  auto harness = MakeHarness(options);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(harness->RunWindows(1).ok());
    EXPECT_LE(harness->live_objects(), 25);
  }
  EXPECT_GT(harness->totals().shed, 0);
}

TEST(ServiceHarnessTest, GuideHotSwapLandsMidSegment) {
  ServiceOptions options;
  options.refresh_period_windows = 3;  // Publishes inside each day segment.
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(12).ok());

  // Refreshes at windows 0, 3, 6, 9: two land mid-segment and are adopted
  // by the running sessions.
  EXPECT_GE(harness->guide_epoch(), 4);
  EXPECT_GT(harness->totals().guide_swaps, 0);
  EXPECT_GT(harness->totals().matched, 0);
}

TEST(ServiceHarnessTest, DegradationLadderFallsBackToGreedyAndRecovers) {
  ServiceOptions options;
  options.faults = "guide-fail@0-0:count=1";  // Bootstrap refresh fails.
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(12).ok());

  // Day 0 ran the ladder's greedy rung (no guide ever published); the
  // window-6 refresh succeeded and day 1 ran guided.
  for (const WindowMetrics& window : harness->windows()) {
    if (window.window < 6) {
      EXPECT_TRUE(window.degraded_greedy) << "window " << window.window;
      EXPECT_EQ(window.guide_age_windows, -1);
    } else {
      EXPECT_FALSE(window.degraded_greedy) << "window " << window.window;
      EXPECT_GE(window.guide_epoch, 1);
    }
  }
  EXPECT_GE(harness->windows().back().refresh_failures, 1);
  EXPECT_GT(harness->totals().matched, 0);  // Service never stopped.
}

TEST(ServiceHarnessTest, DroppedHandoffBatchesAreRedeliveredNextSegment) {
  ServiceOptions options;
  options.windows_per_segment = 3;
  options.faults = "drop-batch@1-1";  // Window 1's handoff is lost.
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(6).ok());

  EXPECT_GT(harness->windows()[1].dropped_arrivals, 0);
  EXPECT_EQ(harness->windows()[0].dropped_arrivals, 0);
  EXPECT_GT(harness->fault_counters().dropped_batches, 0);

  // The same stream without the fault commits at least as many pairs; the
  // dropped objects were only delayed (redelivered via carryover), not
  // silently discarded, so the faulted run still matches.
  ServiceOptions clean = options;
  clean.faults.clear();
  auto reference = MakeHarness(clean);
  ASSERT_TRUE(reference->RunWindows(6).ok());
  EXPECT_GT(harness->totals().matched, 0);
  EXPECT_LE(harness->totals().matched, reference->totals().matched);
}

TEST(ServiceHarnessTest, SampledStallTripsTheSloAndShedsTheNextWindows) {
  // One window per segment: window w's sampled p99 is the SLO signal of
  // window w + 1's admission. The injected stall is added to every sampled
  // decision (never slept), so it alone lifts p99 far past the SLO, while
  // real decisions stay far below it.
  ServiceOptions options;
  options.windows_per_segment = 1;
  options.slo_p99_ms = 200.0;
  options.faults = "slow-shard@2-4:stall-ms=1000";
  auto stalled = MakeHarness(options);
  ASSERT_TRUE(stalled->RunWindows(12).ok());

  ServiceOptions clean = options;
  clean.faults.clear();
  auto reference = MakeHarness(clean);
  ASSERT_TRUE(reference->RunWindows(12).ok());

  for (const auto* harness : {stalled.get(), reference.get()}) {
    for (const WindowMetrics& window : harness->windows()) {
      EXPECT_EQ(window.latency_samples,
                (window.decisions + kLatencySamplePeriod - 1) /
                    kLatencySamplePeriod)
          << "window " << window.window;
    }
  }
  for (const WindowMetrics& window : stalled->windows()) {
    const bool stalled_window = window.window >= 2 && window.window <= 4;
    if (stalled_window) {
      ASSERT_GT(window.decisions, 0) << "window " << window.window;
      EXPECT_GE(window.p99_ms, 1000.0) << "window " << window.window;
    }
    const bool after_stall = window.window >= 3 && window.window <= 5;
    EXPECT_EQ(window.overloaded, after_stall) << "window " << window.window;
    if (after_stall) {
      EXPECT_GT(window.shed, 0) << "window " << window.window;
    } else {
      EXPECT_EQ(window.shed, 0) << "window " << window.window;
    }
  }
  EXPECT_GT(stalled->totals().shed, 0);
  EXPECT_EQ(reference->totals().shed, 0);
  for (const WindowMetrics& window : reference->windows()) {
    EXPECT_FALSE(window.overloaded) << "window " << window.window;
  }
}

TEST(ServiceHarnessTest, ShardedServiceIsDeterministicAcrossThreadCounts) {
  ServiceOptions base;
  base.num_shards = 3;
  base.shard_threads = 1;
  ServiceOptions threaded = base;
  threaded.shard_threads = 3;

  auto a = MakeHarness(base);
  auto b = MakeHarness(threaded);
  ASSERT_TRUE(a->RunWindows(12).ok());
  ASSERT_TRUE(b->RunWindows(12).ok());
  EXPECT_EQ(a->totals().matched, b->totals().matched);
  ASSERT_EQ(a->matched_pairs().size(), b->matched_pairs().size());
  for (size_t i = 0; i < a->matched_pairs().size(); ++i) {
    EXPECT_EQ(a->matched_pairs()[i], b->matched_pairs()[i]) << "pair " << i;
  }
}

TEST(ServiceHarnessTest, BackgroundRefreshEventuallyPublishes) {
  ServiceOptions options;
  options.background_refresh = true;
  options.refresh.timeout_ms = 30000.0;
  auto harness = MakeHarness(options);
  // The solve races the window loop; keep feeding days (each boundary
  // polls) with a little wall time in between until it lands.
  for (int i = 0; i < 1000 && harness->guide_epoch() == 0; ++i) {
    ASSERT_TRUE(harness->RunWindows(6).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(harness->guide_epoch(), 1);
  EXPECT_GE(harness->refresher_stats().publishes, 1);
}

TEST(ServiceHarnessTest, RejectsGuideFailForGuideFreeAlgorithms) {
  // A guide-free algorithm runs no refresh, so a guide-fail fault could
  // never fire: Create says so instead of leaving it silently unconsumed.
  for (const char* algorithm : {"simple-greedy", "tgoa", "gr"}) {
    ServiceOptions options;
    options.algorithm = algorithm;
    options.faults = "flash@1-1,guide-fail@2-4:count=1";
    const auto rejected = ServiceHarness::Create(
        SmallCity(), LoopedTraceSource::Options{}, options);
    ASSERT_FALSE(rejected.ok()) << algorithm;
    EXPECT_TRUE(rejected.status().IsInvalidArgument()) << algorithm;
    EXPECT_NE(rejected.status().message().find("guide-fail"),
              std::string::npos);
    options.faults = "flash@1-1";
    EXPECT_TRUE(ServiceHarness::Create(SmallCity(),
                                       LoopedTraceSource::Options{}, options)
                    .ok())
        << algorithm;
  }
}

TEST(ServiceHarnessTest, RejectsUnknownAlgorithmAndBadFaultSpec) {
  ServiceOptions options;
  options.algorithm = "quantum-dispatch";
  const auto unknown = ServiceHarness::Create(
      SmallCity(), LoopedTraceSource::Options{}, options);
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsNotFound());
  EXPECT_NE(unknown.status().message().find("polar-op"), std::string::npos);

  ServiceOptions bad_faults;
  bad_faults.faults = "meteor-strike@0-1";
  const auto malformed = ServiceHarness::Create(
      SmallCity(), LoopedTraceSource::Options{}, bad_faults);
  ASSERT_FALSE(malformed.ok());
  EXPECT_TRUE(malformed.status().IsInvalidArgument());
}

TEST(ServiceHarnessTest, RejectsDurationsTheExpiryCalendarCannotBucket) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, -0.5,
                           2 * ServiceHarness::kMaxDurationWindows}) {
    for (const bool worker : {true, false}) {
      CityProfile profile = SmallCity();
      (worker ? profile.worker_duration : profile.task_duration) = bad;
      const auto rejected = ServiceHarness::Create(
          profile, LoopedTraceSource::Options{}, ServiceOptions{});
      ASSERT_FALSE(rejected.ok()) << bad << (worker ? " worker" : " task");
      EXPECT_TRUE(rejected.status().IsInvalidArgument());
      EXPECT_NE(rejected.status().message().find("duration"),
                std::string::npos);
    }
  }
}

TEST(ServiceHarnessTest, RejectsNonPositiveOrNonFiniteVelocity) {
  for (const double bad : {0.0, -3.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    CityProfile profile = SmallCity();
    profile.velocity = bad;
    const auto rejected = ServiceHarness::Create(
        profile, LoopedTraceSource::Options{}, ServiceOptions{});
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_TRUE(rejected.status().IsInvalidArgument());
    EXPECT_NE(rejected.status().message().find("velocity"),
              std::string::npos);
  }
}

/// Expects Create to reject `options` with an InvalidArgument naming
/// `field`.
void ExpectOptionRejected(const ServiceOptions& options,
                          const std::string& field) {
  const auto rejected = ServiceHarness::Create(
      SmallCity(), LoopedTraceSource::Options{}, options);
  ASSERT_FALSE(rejected.ok()) << field;
  EXPECT_TRUE(rejected.status().IsInvalidArgument()) << rejected.status();
  EXPECT_NE(rejected.status().message().find(field), std::string::npos)
      << rejected.status();
}

TEST(ServiceHarnessTest, RejectsNegativeShardCount) {
  ServiceOptions options;
  options.num_shards = -3;
  ExpectOptionRejected(options, "num_shards");
  options.num_shards = 0;  // 0 keeps its meaning: one shard.
  EXPECT_EQ(MakeHarness(options)->options().num_shards, 1);
}

TEST(ServiceHarnessTest, RejectsNegativeMaxQueueDepth) {
  ServiceOptions options;
  options.max_queue_depth = -1;
  ExpectOptionRejected(options, "max_queue_depth");
}

TEST(ServiceHarnessTest, RejectsNegativeMaxLiveObjects) {
  ServiceOptions options;
  options.max_live_objects = -5;
  ExpectOptionRejected(options, "max_live_objects");
}

TEST(ServiceHarnessTest, RejectsNegativeOrNonFiniteSlo) {
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    ServiceOptions options;
    options.slo_p99_ms = bad;
    ExpectOptionRejected(options, "slo_p99_ms");
  }
  ServiceOptions off;  // 0 keeps its meaning: no latency trigger.
  off.slo_p99_ms = 0.0;
  auto harness = MakeHarness(off);
  ASSERT_TRUE(harness->RunWindows(6).ok());
  EXPECT_EQ(harness->totals().shed, 0);
}

/// Expects Create to reject `scale` on the Beijing profile with an
/// InvalidArgument that mentions the trace scale.
void ExpectScaleRejected(double scale) {
  LoopedTraceSource::Options trace;
  trace.scale = scale;
  const auto rejected =
      ServiceHarness::Create(BeijingProfile(), trace, ServiceOptions{});
  ASSERT_FALSE(rejected.ok()) << scale;
  EXPECT_TRUE(rejected.status().IsInvalidArgument()) << rejected.status();
  EXPECT_NE(rejected.status().message().find("trace scale"),
            std::string::npos)
      << rejected.status();
}

TEST(ServiceHarnessTest, RejectsNanScale) {
  ExpectScaleRejected(std::numeric_limits<double>::quiet_NaN());
}

TEST(ServiceHarnessTest, RejectsZeroScale) { ExpectScaleRejected(0.0); }

TEST(ServiceHarnessTest, RejectsNegativeScale) { ExpectScaleRejected(-1.0); }

TEST(ServiceHarnessTest, RejectsInfiniteScale) {
  ExpectScaleRejected(std::numeric_limits<double>::infinity());
}

TEST(ServiceHarnessTest, RejectsScaleBeyondTheObjectIdSpace) {
  ExpectScaleRejected(1e5);
}

TEST(ServiceHarnessTest, RejectsScaleFarBeyondTheObjectIdSpace) {
  ExpectScaleRejected(1e12);
}

TEST(ServiceHarnessTest, AcceptsTheServingScales) {
  for (const CityProfile& profile : {BeijingProfile(), HangzhouProfile()}) {
    for (const double scale : {0.05, 0.5, 0.7, 1.0, 3.0}) {
      LoopedTraceSource::Options trace;
      trace.scale = scale;
      const auto harness =
          ServiceHarness::Create(profile, trace, ServiceOptions{});
      EXPECT_TRUE(harness.ok()) << profile.name << " x" << scale << ": "
                                << harness.status();
    }
  }
}

TEST(ServiceHarnessTest, ZeroDurationsAreServedAndExpireNextWindow) {
  // A zero-duration object's deadline is its arrival time, inside its
  // admission window; it expires at the next window boundary.
  CityProfile profile = SmallCity();
  profile.worker_duration = 0.0;
  profile.task_duration = 0.0;
  auto harness = ServiceHarness::Create(profile, LoopedTraceSource::Options{},
                                        ServiceOptions{});
  ASSERT_TRUE(harness.ok()) << harness.status();
  ASSERT_TRUE(harness.value()->RunWindows(2 * profile.slots_per_day).ok());
  const auto& windows = harness.value()->windows();
  for (size_t w = 1; w < windows.size(); ++w) {
    EXPECT_EQ(windows[w].evicted, windows[w - 1].admitted) << "window " << w;
  }
  EXPECT_EQ(harness.value()->totals().evicted_live, 0);
}

TEST(ServiceHarnessTest, RetrievalStatsSurfaceOnRotationWindowsOnly) {
  // The engine's per-query stats are attributed to the window that
  // rotated the segment (like `matched`). POLAR-OP searches no candidates
  // spatially, so its windows carry none.
  ServiceOptions engine_options;
  engine_options.algorithm = "tgoa";
  engine_options.windows_per_segment = 3;
  auto engine = MakeHarness(engine_options);
  ASSERT_TRUE(engine->RunWindows(12).ok());

  ServiceOptions guided_options = engine_options;
  guided_options.algorithm = "polar-op";
  auto guided = MakeHarness(guided_options);
  ASSERT_TRUE(guided->RunWindows(12).ok());

  int64_t engine_queries = 0;
  for (size_t i = 0; i < engine->windows().size(); ++i) {
    const WindowMetrics& w = engine->windows()[i];
    engine_queries += w.retrieval_queries;
    if (w.retrieval_queries > 0) {
      EXPECT_GE(w.cells_visited_p99, w.cells_visited_p50) << "window " << i;
    } else {
      // Non-rotation windows carry no retrieval activity.
      EXPECT_EQ(w.candidates_examined, 0) << "window " << i;
    }
  }
  EXPECT_GT(engine_queries, 0);
  EXPECT_GT(guided->totals().matched, 0);
  for (const WindowMetrics& w : guided->windows()) {
    EXPECT_EQ(w.retrieval_queries, 0);
    EXPECT_EQ(w.candidates_examined, 0);
    EXPECT_EQ(w.cells_visited_p50, 0);
    EXPECT_EQ(w.cells_visited_p99, 0);
  }
}

}  // namespace
}  // namespace ftoa
