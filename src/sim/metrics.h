// Per-run measurements mirroring the paper's three evaluation axes:
// matching size, running time, and memory.

#ifndef FTOA_SIM_METRICS_H_
#define FTOA_SIM_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ftoa {

/// Systematic latency sampling period of the serving paths: the sharded
/// dispatcher (per shard) and the service harness (per window) time every
/// Nth decision by its ordinal, starting with the first, and keep the
/// decision count exact. Two clock reads per ~100 ns decision would
/// otherwise cost more than the decision itself.
inline constexpr int64_t kLatencySamplePeriod = 8;

/// Nearest-rank percentile of an unsorted sample: the value at sorted
/// index ceil(quantile * n) - 1, the smallest value with at least that
/// fraction of the sample at or below it (over 1..100, p50 = 50 and
/// p99 = 99). 0 for an empty sample. Destructive: the sample is reordered
/// in place (nth_element). Every latency percentile of the serving paths
/// (RunMetrics, WindowMetrics) comes from here.
int64_t NearestRankPercentile(std::vector<int64_t>& sample,
                              double quantile);

/// The outcome of running one algorithm on one instance.
struct RunMetrics {
  std::string algorithm;        ///< Display name.
  int64_t matching_size = 0;    ///< MaxSum(M).
  double elapsed_seconds = 0.0; ///< Wall time of the online phase.
  /// CPU time spent inside session decisions (the sum of the per-decision
  /// latencies). 0 when decisions are not individually timed (plain batch
  /// replay). For a sharded run this is the *summed* busy time of all
  /// shards, which can exceed elapsed_seconds when shards run concurrently
  /// — elapsed is the critical path, busy is the work.
  double busy_seconds = 0.0;
  /// Critical-path bound of a sharded run: the largest per-shard busy time
  /// (MergeShardRunMetrics' max). Unlike elapsed_seconds — which callers
  /// overwrite with the measured wall clock of the whole replay — this
  /// field survives the overwrite, so the merged-max semantics are never
  /// clobbered (the PR-5 data-loss noted in sim/sharded_dispatcher.h).
  /// 0 for unsharded runs.
  double critical_path_seconds = 0.0;
  uint64_t peak_memory_bytes = 0; ///< Peak heap growth during the run.

  // Strict-simulation extras (0 when strict verification is disabled).
  int64_t strict_feasible_pairs = 0;  ///< Pairs surviving re-verification.
  int64_t strict_violations = 0;      ///< Pairs failing re-verification.

  // Trace extras.
  int64_t dispatched_workers = 0;  ///< Guide-issued relocations.
  int64_t ignored_objects = 0;     ///< Arrivals dropped by POLAR/POLAR-OP.

  // Streaming extras (populated by RunnerOptions::streaming, which drives
  // the algorithm's AssignmentSession arrival by arrival and measures each
  // decision — the production dispatcher's latency axis).
  int64_t decisions = 0;                 ///< Arrivals fed to the session.
  /// Decisions individually timed: the sample the latency fields and
  /// busy_seconds come from. Equal to `decisions` on the runner's streaming
  /// path; ceil(decisions / kLatencySamplePeriod) per shard of a sharded
  /// run.
  int64_t latency_samples = 0;
  double decision_latency_p50_ns = 0.0;  ///< Median per-decision latency.
  double decision_latency_p99_ns = 0.0;  ///< Tail per-decision latency.
  double decision_latency_max_ns = 0.0;  ///< Worst single decision.

  /// Pairs recovered by the post-merge boundary reconciliation pass of a
  /// sharded run (sim/boundary_reconciler); included in matching_size.
  int64_t reconciled_pairs = 0;

  /// Guide hot-swaps adopted by the run's sessions
  /// (AssignmentSession::SwapGuide; serve/service_harness's live refresh).
  int64_t guide_swaps = 0;

  /// Replaces elapsed_seconds with a measured wall clock without losing the
  /// previous value's information: when the previous elapsed was the
  /// merged critical-path bound of a sharded run, it is preserved in
  /// critical_path_seconds. All callers that re-measure the wall clock of a
  /// whole replay (dispatcher Run, sim/runner) go through this.
  void SetWallClock(double wall_seconds) {
    if (critical_path_seconds == 0.0) {
      critical_path_seconds = elapsed_seconds;
    }
    elapsed_seconds = wall_seconds;
  }
};

/// Fills `decisions`, `latency_samples`, `busy_seconds`, and the
/// decision_latency percentile fields of `metrics` from a raw per-decision
/// latency sample (every decision timed), using NearestRankPercentile.
/// Destructive: the sample is reordered in place. An empty sample leaves
/// the fields at 0.
void FillDecisionLatencies(std::vector<int64_t>& latency_ns,
                           RunMetrics* metrics);

/// Aggregates per-shard RunMetrics into the merged metrics of one sharded
/// run (sim/sharded_dispatcher). The chosen merge semantics, field by field:
///
///  * Counter fields (matching_size, decisions, latency_samples, strict_*,
///    dispatched_workers, ignored_objects, reconciled_pairs) and
///    peak_memory_bytes are *summed*. For concurrently-running shards the
///    summed heap peak is an upper bound on the true process peak (shard
///    peaks need not coincide).
///  * busy_seconds is *summed*: it is work, and shard work adds up
///    regardless of the schedule.
///  * elapsed_seconds merges by *max*: shards execute concurrently, so the
///    critical-path shard bounds the wall clock of the sharded run. The
///    same max also lands in critical_path_seconds, which is where it
///    survives: callers that measure the true wall clock of the whole
///    sharded replay (dispatcher Run, sim/runner) overwrite
///    elapsed_seconds via RunMetrics::SetWallClock — the merged-max and
///    the per-shard work (busy_seconds) are never clobbered.
///  * Percentile fields (decision_latency_{p50,p99,max}_ns) merge by *max*.
///    This is a conservative upper bound on the pooled percentile: if at
///    most a (1-q) fraction of each shard's samples exceed that shard's
///    q-percentile, then at most a (1-q) fraction of the pooled samples
///    exceed the max of the per-shard q-percentiles, hence pooled
///    p_q <= max(shard p_q) up to nearest-rank discretization. Averaging
///    (weighted or not) holds no such guarantee — a lightly-loaded fast
///    shard would mask a saturated one — so an SLO read off the merged
///    value is still honored by every shard.
///
/// `algorithm` is taken from the first entry (all shards run one
/// algorithm). An empty input yields a default RunMetrics.
RunMetrics MergeShardRunMetrics(const std::vector<RunMetrics>& shards);

}  // namespace ftoa

#endif  // FTOA_SIM_METRICS_H_
