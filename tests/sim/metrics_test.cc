#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <vector>

#include "serve/service_harness.h"

namespace ftoa {
namespace {

RunMetrics ShardMetrics(double busy, int64_t decisions, int64_t matches) {
  RunMetrics m;
  m.algorithm = "polar";
  m.busy_seconds = busy;
  m.elapsed_seconds = busy;  // A shard's elapsed is its busy time.
  m.decisions = decisions;
  m.matching_size = matches;
  return m;
}

TEST(NearestRankPercentileTest, RunAndWindowMetricsAgreeOverOneToHundred) {
  // One definition for both serving paths: over the samples 1..100 the
  // nearest-rank p50 is 50 and p99 is 99 (not the maximum), whether the
  // dispatcher's RunMetrics or the harness's WindowMetrics reports it.
  std::vector<int64_t> ns(100);
  for (size_t i = 0; i < ns.size(); ++i) {
    ns[i] = static_cast<int64_t>((i * 37) % 100 + 1);  // 1..100, shuffled.
  }
  std::vector<int64_t> ms_in_ns = ns;
  for (int64_t& value : ms_in_ns) value *= 1000000;

  RunMetrics run;
  FillDecisionLatencies(ns, &run);
  EXPECT_DOUBLE_EQ(run.decision_latency_p50_ns, 50.0);
  EXPECT_DOUBLE_EQ(run.decision_latency_p99_ns, 99.0);
  EXPECT_DOUBLE_EQ(run.decision_latency_max_ns, 100.0);

  WindowMetrics window;
  window.FillLatencies(ms_in_ns);
  EXPECT_EQ(window.latency_samples, 100);
  EXPECT_DOUBLE_EQ(window.p50_ms, 50.0);
  EXPECT_DOUBLE_EQ(window.p99_ms, 99.0);
  EXPECT_DOUBLE_EQ(window.max_ms, 100.0);

  std::vector<int64_t> one = {7};
  EXPECT_EQ(NearestRankPercentile(one, 0.99), 7);
  std::vector<int64_t> none;
  EXPECT_EQ(NearestRankPercentile(none, 0.5), 0);
}

TEST(MergeShardRunMetricsTest, CriticalPathIsMaxShardTime) {
  const std::vector<RunMetrics> shards = {
      ShardMetrics(0.5, 100, 10), ShardMetrics(2.0, 400, 40),
      ShardMetrics(1.25, 250, 25)};
  const RunMetrics merged = MergeShardRunMetrics(shards);
  EXPECT_DOUBLE_EQ(merged.elapsed_seconds, 2.0);
  EXPECT_DOUBLE_EQ(merged.critical_path_seconds, 2.0);
  EXPECT_DOUBLE_EQ(merged.busy_seconds, 3.75);
  EXPECT_EQ(merged.decisions, 750);
  EXPECT_EQ(merged.matching_size, 75);
}

TEST(MergeShardRunMetricsTest, GuideSwapsSumAcrossShards) {
  std::vector<RunMetrics> shards = {ShardMetrics(0.1, 1, 1),
                                    ShardMetrics(0.1, 1, 1)};
  shards[0].guide_swaps = 2;
  shards[1].guide_swaps = 3;
  EXPECT_EQ(MergeShardRunMetrics(shards).guide_swaps, 5);
}

TEST(MergeShardRunMetricsTest, LatencySamplesSumAcrossShards) {
  // A fully timed run samples every decision; a sharded shard samples one
  // in kLatencySamplePeriod. The merge sums both counts independently.
  std::vector<int64_t> latencies = {30, 10, 20};
  RunMetrics timed;
  FillDecisionLatencies(latencies, &timed);
  EXPECT_EQ(timed.decisions, 3);
  EXPECT_EQ(timed.latency_samples, 3);

  RunMetrics sampled = ShardMetrics(0.1, 17, 1);
  sampled.latency_samples = 3;  // Ordinals 0, 8 and 16 of 17.
  const RunMetrics merged = MergeShardRunMetrics({timed, sampled});
  EXPECT_EQ(merged.decisions, 20);
  EXPECT_EQ(merged.latency_samples, 6);
}

// The PR-5 regression: dispatcher Run / sim runner re-measure the wall clock
// of the whole sharded replay and used to assign it straight into
// elapsed_seconds, destroying the merged critical-path max. SetWallClock
// must preserve that bound (and never touch busy_seconds).
TEST(MergeShardRunMetricsTest, WallClockOverwriteKeepsMergedMax) {
  const std::vector<RunMetrics> shards = {ShardMetrics(0.5, 100, 10),
                                          ShardMetrics(2.0, 400, 40)};
  RunMetrics merged = MergeShardRunMetrics(shards);
  ASSERT_DOUBLE_EQ(merged.elapsed_seconds, 2.0);

  merged.SetWallClock(2.75);  // Measured wall clock of the whole replay.
  EXPECT_DOUBLE_EQ(merged.elapsed_seconds, 2.75);
  EXPECT_DOUBLE_EQ(merged.critical_path_seconds, 2.0);
  EXPECT_DOUBLE_EQ(merged.busy_seconds, 2.5);

  // A second overwrite (e.g. runner re-timing around dispatcher Run) still
  // keeps the original critical path, not the intermediate wall clock.
  merged.SetWallClock(3.5);
  EXPECT_DOUBLE_EQ(merged.elapsed_seconds, 3.5);
  EXPECT_DOUBLE_EQ(merged.critical_path_seconds, 2.0);
}

TEST(MergeShardRunMetricsTest, UnshardedWallClockLeavesCriticalPathZero) {
  RunMetrics metrics;  // Fresh unsharded run: elapsed starts at 0.
  metrics.SetWallClock(1.5);
  EXPECT_DOUBLE_EQ(metrics.elapsed_seconds, 1.5);
  EXPECT_DOUBLE_EQ(metrics.critical_path_seconds, 0.0);
}

TEST(MergeShardRunMetricsTest, NestedMergePropagatesCriticalPath) {
  // A merged result whose elapsed was overwritten by a wall clock can be
  // merged again (multi-segment serving); the critical path must survive.
  std::vector<RunMetrics> shards = {ShardMetrics(0.5, 100, 10),
                                    ShardMetrics(2.0, 400, 40)};
  RunMetrics segment = MergeShardRunMetrics(shards);
  segment.SetWallClock(0.1);  // Wall clock smaller than the shard max.
  const RunMetrics total = MergeShardRunMetrics({segment});
  EXPECT_DOUBLE_EQ(total.critical_path_seconds, 2.0);
}

TEST(MergeShardRunMetricsTest, LatencyPercentilesMergeByMax) {
  std::vector<RunMetrics> shards = {ShardMetrics(0.5, 100, 10),
                                    ShardMetrics(1.0, 100, 10)};
  shards[0].decision_latency_p50_ns = 100.0;
  shards[0].decision_latency_p99_ns = 900.0;
  shards[1].decision_latency_p50_ns = 300.0;
  shards[1].decision_latency_p99_ns = 500.0;
  const RunMetrics merged = MergeShardRunMetrics(shards);
  EXPECT_DOUBLE_EQ(merged.decision_latency_p50_ns, 300.0);
  EXPECT_DOUBLE_EQ(merged.decision_latency_p99_ns, 900.0);
}

}  // namespace
}  // namespace ftoa
