// Serving equivalences at the harness level.
//
// Rotation: the harness's persistent spine, with eviction, must commit
// exactly the pairs of tests/oracles/reference_serve_loop — which never
// evicts and rebuilds every carryover by scanning all admitted objects —
// across algorithms, shard counts, segment lengths, fault plans, and day
// boundaries. The spine is an optimization of *how* the carryover universe
// is assembled, never of what it contains.
//
// Refresh: a harness serving with GuideRefreshMode::kWarm must match the
// cold-serving harness bit for bit, including mid-segment hot-swap
// publishes, while actually reusing component solves (the reuse totals
// prove the warm path engaged, not silently fell back cold). An inline
// refresh whose prediction is unchanged republishes the last guide without
// solving; the reference loop solves every epoch, so the pin covers it.
//
// The *Stress* suite fuzzes option interleavings under the `stress` ctest
// label (re-runnable via tools/run_stress.sh).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "oracles/reference_serve_loop.h"
#include "serve/service_harness.h"
#include "util/rng.h"

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

void ExpectSamePairs(const ServiceHarness& a, const ServiceHarness& b,
                     const std::string& context) {
  EXPECT_EQ(a.totals().matched, b.totals().matched) << context;
  ASSERT_EQ(a.matched_pairs().size(), b.matched_pairs().size()) << context;
  for (size_t i = 0; i < a.matched_pairs().size(); ++i) {
    ASSERT_EQ(a.matched_pairs()[i], b.matched_pairs()[i])
        << context << " pair " << i;
  }
}

/// The harness's pairs must equal the reference loop's on the same
/// stream, publish schedule and ladder rungs.
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

TEST(RotationEquivalenceTest, SpineMatchesRebuildAcrossAlgorithmsAndShards) {
  for (const char* algorithm : {"simple-greedy", "tgoa", "polar-op"}) {
    for (const int shards : {1, 3}) {
      for (const int wps : {2, 6}) {
        ServiceOptions options;
        options.algorithm = algorithm;
        options.num_shards = shards;
        options.windows_per_segment = wps;
        auto harness = MakeHarness(options);
        // 20 windows = 3+ days: multiple day-boundary re-timings.
        ASSERT_TRUE(harness->RunWindows(20).ok());
        ExpectMatchesReference(
            *harness, std::string(algorithm) + " shards=" +
                          std::to_string(shards) +
                          " wps=" + std::to_string(wps));
        EXPECT_GT(harness->totals().matched, 0);
        EXPECT_GT(harness->totals().evictions, 0);
      }
    }
  }
}

TEST(RotationEquivalenceTest, SpineMatchesRebuildUnderFaults) {
  // Dropped handoffs leave objects for redelivery, flash crowds force
  // shedding, and a failed refresh degrades a segment — all paths that
  // exercise the spine's carryover filter differently from a clean run.
  ServiceOptions options;
  options.windows_per_segment = 4;  // Shrinks to 2 at day boundaries.
  options.max_queue_depth = 80;
  options.faults = "drop-batch@3-4,flash@7-8:factor=6,guide-fail@6-6:count=1";
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(18).ok());
  ExpectMatchesReference(*harness, "faulted");
  EXPECT_GT(harness->totals().dropped_arrivals, 0);
  EXPECT_GT(harness->totals().shed, 0);
  EXPECT_GT(harness->refresher_stats().failed_cycles, 0);
}

TEST(RotationEquivalenceTest, SpineMatchesRebuildWithEngineAndReconcile) {
  // The serving benchmark's sharded configuration, with inline refresh:
  // retrieval engine, reconciled shards on a shared pool, and guides
  // hot-swapped mid-segment.
  ServiceOptions options;
  options.algorithm = "polar-op";
  options.num_shards = 3;
  options.shard_threads = 2;
  options.reconcile = true;
  options.retrieval = RetrievalMode::kEngine;
  options.windows_per_segment = 2;
  options.refresh_period_windows = 3;
  options.analytical_slice = 1;
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(20).ok());
  ExpectMatchesReference(*harness, "engine + reconcile");
  EXPECT_GT(harness->totals().guide_swaps, 0);
}

TEST(RotationEquivalenceTest, ReconciledCountsTheDispatchersRecoveredPairs) {
  // WindowMetrics::reconciled attributes a segment's boundary recoveries
  // to its rotation window: per window it equals the recovered_pairs of
  // the reference loop's dispatcher for that segment, and the per-window
  // sum is ServiceTotals::reconciled.
  ServiceOptions options;
  options.algorithm = "polar-op";
  options.num_shards = 4;
  options.shard_threads = 2;
  options.reconcile = true;
  options.retrieval = RetrievalMode::kEngine;
  options.windows_per_segment = 2;
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(18).ok());
  std::vector<int64_t> want;
  const auto reference = testing::ReferenceServeLoop(
      SmallCity(), LoopedTraceSource::Options{}, harness->options(),
      harness->windows(), &want);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(want.size(), harness->windows().size());
  int64_t got_sum = 0;
  int64_t want_sum = 0;
  for (size_t w = 0; w < want.size(); ++w) {
    const WindowMetrics& row = harness->windows()[w];
    EXPECT_EQ(row.reconciled, want[w]) << "window " << w;
    EXPECT_LE(row.reconciled, row.matched) << "window " << w;
    got_sum += row.reconciled;
    want_sum += want[w];
  }
  EXPECT_EQ(got_sum, want_sum);
  EXPECT_EQ(harness->totals().reconciled, got_sum);
  EXPECT_GT(got_sum, 0);

  options.reconcile = false;
  auto unreconciled = MakeHarness(options);
  ASSERT_TRUE(unreconciled->RunWindows(18).ok());
  EXPECT_EQ(unreconciled->totals().reconciled, 0);
}

TEST(RotationEquivalenceTest, ReferenceRejectsWhatItDoesNotModel) {
  auto harness = MakeHarness(ServiceOptions{});
  ASSERT_TRUE(harness->RunWindows(2).ok());
  ServiceOptions slo = harness->options();
  slo.slo_p99_ms = 1.0;
  ServiceOptions capped = harness->options();
  capped.max_live_objects = 10;
  for (const ServiceOptions& options : {slo, capped}) {
    const auto reference = testing::ReferenceServeLoop(
        SmallCity(), LoopedTraceSource::Options{}, options,
        harness->windows());
    ASSERT_FALSE(reference.ok());
    EXPECT_TRUE(reference.status().IsInvalidArgument());
  }
}

TEST(WarmRefreshServeTest, WarmServeMatchesColdIncludingHotSwaps) {
  // refresh_period 3 on 6-window days: every second refresh publishes
  // mid-segment (hot-swap) and sees the prediction the day's first refresh
  // solved, so both harnesses republish that guide unsolved. The component
  // cache needs a new prediction with a sparse delta: every day replays
  // one source day, and a flash crowd in window 7 changes only slot 1's
  // counts, so the refreshes of days 2 and 3 re-solve just the components
  // that slot touches. A wider grid at unit velocity splits the type
  // network into several components. kCompressed keeps the solve on the
  // component-reusing path (kAuto would pick node-level at this scale and
  // run cold by design).
  CityProfile city = SmallCity();
  city.grid_x = 16;
  city.grid_y = 10;
  city.velocity = 1.0;
  LoopedTraceSource::Options trace;
  trace.loop_days = 1;
  ServiceOptions cold;
  cold.refresh_period_windows = 3;
  cold.faults = "flash@7-7:factor=2";
  cold.guide.engine = GuideOptions::Engine::kCompressed;
  cold.guide.refresh_mode = GuideRefreshMode::kCold;
  ServiceOptions warm = cold;
  warm.guide.refresh_mode = GuideRefreshMode::kWarm;

  auto a = std::move(ServiceHarness::Create(city, trace, warm)).value();
  auto b = std::move(ServiceHarness::Create(city, trace, cold)).value();
  ASSERT_TRUE(a->RunWindows(24).ok());
  ASSERT_TRUE(b->RunWindows(24).ok());
  ExpectSamePairs(*a, *b, "warm vs cold serve");
  EXPECT_GT(a->totals().guide_swaps, 0);  // Hot-swaps actually landed.

  // Mid-day refreshes (windows 3, 9, 15, 21) reuse the published guide in
  // both harnesses; the cache never sees them.
  for (const ServiceHarness* harness : {a.get(), b.get()}) {
    EXPECT_GE(harness->totals().unchanged_refreshes, 4);
    for (const WindowMetrics& w : harness->windows()) {
      if (w.window % 6 == 3) {
        EXPECT_TRUE(w.refresh_unchanged) << "window " << w.window;
      }
    }
  }
  EXPECT_EQ(a->totals().unchanged_refreshes,
            b->totals().unchanged_refreshes);
  // The warm harness reused components on the sparse-delta refreshes; the
  // cold one never does.
  EXPECT_GT(a->totals().warm_refreshes, 0);
  EXPECT_GT(a->totals().refresh_components_reused, 0);
  EXPECT_EQ(b->totals().warm_refreshes, 0);
  EXPECT_EQ(b->totals().refresh_components_reused, 0);
  // Cost attribution reaches the per-window rows: every publish window
  // carries a solve time, non-publish windows carry none.
  double attributed_ms = 0.0;
  for (const WindowMetrics& w : a->windows()) {
    attributed_ms += w.refresh_ms;
    if (w.refresh_components_total > 0) {
      EXPECT_GE(w.refresh_components_total, w.refresh_components_reused);
    }
  }
  EXPECT_GT(attributed_ms, 0.0);
  EXPECT_DOUBLE_EQ(attributed_ms, a->totals().refresh_ms);
}

TEST(RefreshMemoServeTest, UnchangedRefreshesMatchTheSolveEveryEpochLoop) {
  // Inline refresh every 3 windows over 20 windows (3+ days). The flash
  // crowd in window 1 makes day 0's realized counts differ from the
  // bootstrap prediction, so every day-boundary refresh solves a new
  // prediction and exactly the mid-day ones reuse. The reference loop
  // solves every epoch from scratch.
  ServiceOptions options;
  options.algorithm = "polar-op";
  options.refresh_period_windows = 3;
  options.faults = "flash@1-1:factor=2";
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(20).ok());
  ExpectMatchesReference(*harness, "memoized inline refresh");

  int64_t mid_day_publishes = 0;
  for (const WindowMetrics& w : harness->windows()) {
    if (w.refresh_ms > 0.0 && w.window % 6 != 0) ++mid_day_publishes;
    EXPECT_EQ(w.refresh_unchanged, w.window % 6 == 3)
        << "window " << w.window;
  }
  EXPECT_EQ(mid_day_publishes, 3);  // Windows 3, 9, 15.
  EXPECT_EQ(harness->totals().unchanged_refreshes, mid_day_publishes);
  EXPECT_EQ(harness->refresher_stats().publishes, 7);
  EXPECT_GT(harness->totals().guide_swaps, 0);
}

TEST(RefreshMemoServeTest, GuideFreeAlgorithmRunsNoRefresh) {
  for (const bool background : {false, true}) {
    ServiceOptions options;
    options.algorithm = "simple-greedy";
    options.refresh_period_windows = 3;
    options.background_refresh = background;
    auto harness = MakeHarness(options);
    ASSERT_TRUE(harness->RunWindows(20).ok());
    ExpectMatchesReference(*harness, "simple-greedy");
    EXPECT_EQ(harness->guide_epoch(), 0);
    EXPECT_EQ(harness->refresher_stats().attempts, 0);
    EXPECT_EQ(harness->refresher_stats().publishes, 0);
    EXPECT_EQ(harness->totals().refresh_ms, 0.0);
    for (const WindowMetrics& w : harness->windows()) {
      EXPECT_FALSE(w.degraded_greedy) << "window " << w.window;
    }
    EXPECT_GT(harness->totals().matched, 0);
  }
}

TEST(WarmRefreshServeTest, BackgroundWarmRefreshAttributesCycles) {
  ServiceOptions options;
  options.background_refresh = true;
  options.guide.engine = GuideOptions::Engine::kCompressed;
  options.guide.refresh_mode = GuideRefreshMode::kWarm;
  options.refresh.timeout_ms = 30000.0;
  auto harness = MakeHarness(options);
  for (int i = 0; i < 1000 && harness->totals().cold_refreshes +
                                  harness->totals().warm_refreshes < 2;
       ++i) {
    ASSERT_TRUE(harness->RunWindows(6).ok());
  }
  // Background publishes carry their cycle report across the thread
  // boundary into the totals.
  EXPECT_GE(harness->totals().cold_refreshes +
                harness->totals().warm_refreshes,
            2);
  EXPECT_GT(harness->totals().refresh_ms, 0.0);
}

TEST(AnalyticalSliceTest, SharedPoolServeMatchesDedicatedLayout) {
  // analytical_slice shares one pool between shard drains and the
  // refresher's bounded slice. Scheduling must not leak into results:
  // with inline refresh (whose publish timing is deterministic), pairs
  // are bit-identical to the PR 6 layout (dispatcher-owned pools).
  ServiceOptions dedicated;
  dedicated.num_shards = 2;
  dedicated.shard_threads = 2;
  ServiceOptions shared = dedicated;
  shared.analytical_slice = 1;

  auto a = MakeHarness(shared);
  auto b = MakeHarness(dedicated);
  ASSERT_TRUE(a->RunWindows(18).ok());
  ASSERT_TRUE(b->RunWindows(18).ok());
  ExpectSamePairs(*a, *b, "shared pool vs dedicated");
  EXPECT_GT(a->totals().matched, 0);
}

TEST(AnalyticalSliceTest, BackgroundSolvesOnTheSharedPoolStayLive) {
  // Background refresh on the slice races the window loop (publish timing
  // is scheduling-dependent, so no bit-identity claim) — but cycles must
  // keep completing and publishing while shard drains share the pool, and
  // the harness must tear down cleanly with solves possibly in flight.
  ServiceOptions options;
  options.num_shards = 2;
  options.shard_threads = 2;
  options.background_refresh = true;
  options.analytical_slice = 1;
  options.refresh.timeout_ms = 30000.0;
  auto harness = MakeHarness(options);
  for (int i = 0; i < 1000 && harness->guide_epoch() < 2; ++i) {
    ASSERT_TRUE(harness->RunWindows(6).ok());
  }
  EXPECT_GE(harness->guide_epoch(), 2);
  EXPECT_GT(harness->totals().matched, 0);
}

TEST(RefreshPredictorTest, LearnedPredictorFeedsTheRefresher) {
  ServiceOptions options;
  options.refresh_predictor = "HA";
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(18).ok());
  EXPECT_GE(harness->refresher_stats().publishes, 3);
  EXPECT_GT(harness->totals().matched, 0);

  // A lagged model (LR wants > 15 training days) fits too once the
  // history is long enough — the rolling refit hands it the generator
  // history plus every completed stream day.
  CityProfile long_history = SmallCity();
  long_history.history_days = 18;
  ServiceOptions lr = options;
  lr.refresh_predictor = "LR";
  auto lr_harness = ServiceHarness::Create(
      long_history, LoopedTraceSource::Options{}, lr);
  ASSERT_TRUE(lr_harness.ok()) << lr_harness.status();
  const Status lr_run = (*lr_harness)->RunWindows(18);
  ASSERT_TRUE(lr_run.ok()) << lr_run;
  EXPECT_GT((*lr_harness)->totals().matched, 0);

  ServiceOptions unknown;
  unknown.refresh_predictor = "oracle";
  const auto bad = ServiceHarness::Create(
      SmallCity(), LoopedTraceSource::Options{}, unknown);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
}

TEST(FaultLaneTest, ShardTargetedDropsFollowTheRouterNotStreamIds) {
  // A shard-targeted drop-batch hits the lane the session router actually
  // assigns (spatial bands under the grid router), so it must drop only
  // part of each window's traffic — and stay deterministic across shard
  // thread counts, since Route is a pure function of (kind, id, location).
  ServiceOptions options;
  options.num_shards = 2;
  options.windows_per_segment = 3;
  options.faults = "drop-batch@0-8:shard=0";
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(9).ok());
  EXPECT_GT(harness->totals().dropped_arrivals, 0);
  // Shard 1's band was never dropped: traffic flowed and matched every
  // segment, unlike the all-lanes drop below.
  EXPECT_GT(harness->totals().matched, 0);

  // Dropping every lane loses strictly more traffic than dropping one
  // shard's band (segment-start carryover redelivery still gets through
  // in both runs — drop-batch governs per-window handoffs).
  ServiceOptions all_lanes = options;
  all_lanes.faults = "drop-batch@0-8";  // No shard filter: whole handoff.
  auto nothing = MakeHarness(all_lanes);
  ASSERT_TRUE(nothing->RunWindows(9).ok());
  EXPECT_LT(nothing->totals().matched, harness->totals().matched);
  EXPECT_GT(nothing->totals().dropped_arrivals,
            harness->totals().dropped_arrivals);

  ServiceOptions threaded = options;
  threaded.shard_threads = 2;
  auto b = MakeHarness(threaded);
  ASSERT_TRUE(b->RunWindows(9).ok());
  ExpectSamePairs(*harness, *b, "lane drops across thread counts");
  EXPECT_EQ(harness->totals().dropped_arrivals,
            b->totals().dropped_arrivals);
}

TEST(RotationRefreshStressTest, FuzzedInterleavingsStayEquivalent) {
  // Randomized option interleavings: every draw must keep the warm
  // harness equivalent to the cold one, and both to the reference loop
  // (no eviction, rebuilt carryover, guides re-solved cold).
  Rng draw(20260808ULL);
  for (int trial = 0; trial < 12; ++trial) {
    ServiceOptions base;
    base.algorithm =
        std::vector<const char*>{"simple-greedy", "tgoa",
                                 "polar-op"}[draw.NextBounded(3)];
    base.num_shards = static_cast<int>(draw.NextInt(1, 3));
    base.windows_per_segment = static_cast<int>(draw.NextInt(1, 6));
    base.refresh_period_windows = static_cast<int>(draw.NextInt(1, 6));
    base.guide.engine = GuideOptions::Engine::kCompressed;
    if (draw.NextBool(0.4)) {
      base.faults = "drop-batch@2-5:prob=0.5,flash@6-7:factor=3";
      base.max_queue_depth = 100;
    }
    base.guide.refresh_mode = GuideRefreshMode::kCold;

    ServiceOptions warm = base;
    warm.guide.refresh_mode = GuideRefreshMode::kWarm;

    auto cold_harness = MakeHarness(base);
    auto subject = MakeHarness(warm);
    const int64_t windows = draw.NextInt(7, 20);
    ASSERT_TRUE(cold_harness->RunWindows(windows).ok());
    ASSERT_TRUE(subject->RunWindows(windows).ok());
    const std::string context = "trial " + std::to_string(trial);
    ExpectSamePairs(*subject, *cold_harness, context);
    ExpectMatchesReference(*subject, context);
  }
}

}  // namespace
}  // namespace ftoa
