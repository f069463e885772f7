#include "sim/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>

namespace ftoa {

int64_t NearestRankPercentile(std::vector<int64_t>& sample,
                              double quantile) {
  if (sample.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(quantile * static_cast<double>(sample.size())));
  const size_t index = std::clamp<size_t>(rank, 1, sample.size()) - 1;
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<std::ptrdiff_t>(index),
                   sample.end());
  return sample[index];
}

void FillDecisionLatencies(std::vector<int64_t>& latency_ns,
                           RunMetrics* metrics) {
  metrics->decisions = static_cast<int64_t>(latency_ns.size());
  metrics->latency_samples = metrics->decisions;
  metrics->busy_seconds =
      static_cast<double>(std::accumulate(latency_ns.begin(),
                                          latency_ns.end(), int64_t{0})) *
      1e-9;
  metrics->decision_latency_p50_ns =
      static_cast<double>(NearestRankPercentile(latency_ns, 0.50));
  metrics->decision_latency_p99_ns =
      static_cast<double>(NearestRankPercentile(latency_ns, 0.99));
  if (!latency_ns.empty()) {
    metrics->decision_latency_max_ns = static_cast<double>(
        *std::max_element(latency_ns.begin(), latency_ns.end()));
  }
}

RunMetrics MergeShardRunMetrics(const std::vector<RunMetrics>& shards) {
  RunMetrics merged;
  if (shards.empty()) return merged;
  merged.algorithm = shards.front().algorithm;
  for (const RunMetrics& shard : shards) {
    merged.matching_size += shard.matching_size;
    merged.elapsed_seconds =
        std::max(merged.elapsed_seconds, shard.elapsed_seconds);
    // The critical-path bound survives later wall-clock overwrites of
    // elapsed_seconds (SetWallClock); nested merges keep the largest bound
    // seen anywhere below.
    merged.critical_path_seconds =
        std::max({merged.critical_path_seconds, shard.critical_path_seconds,
                  shard.elapsed_seconds});
    merged.busy_seconds += shard.busy_seconds;
    merged.peak_memory_bytes += shard.peak_memory_bytes;
    merged.strict_feasible_pairs += shard.strict_feasible_pairs;
    merged.strict_violations += shard.strict_violations;
    merged.dispatched_workers += shard.dispatched_workers;
    merged.ignored_objects += shard.ignored_objects;
    merged.decisions += shard.decisions;
    merged.latency_samples += shard.latency_samples;
    merged.reconciled_pairs += shard.reconciled_pairs;
    merged.guide_swaps += shard.guide_swaps;
    merged.decision_latency_p50_ns = std::max(merged.decision_latency_p50_ns,
                                              shard.decision_latency_p50_ns);
    merged.decision_latency_p99_ns = std::max(merged.decision_latency_p99_ns,
                                              shard.decision_latency_p99_ns);
    merged.decision_latency_max_ns = std::max(merged.decision_latency_max_ns,
                                              shard.decision_latency_max_ns);
  }
  return merged;
}

}  // namespace ftoa
