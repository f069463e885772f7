// Steady-state serving cost benchmark for the warm-refresh / incremental-
// rotation PR, in three families:
//
//   BM_GuideRefresh/{cold,warm}/C   — guide re-solve cost on a sparse-delta
//       prediction sequence over a C-cluster city (each cluster its own
//       connected component of the type-pair network; each refresh dirties
//       at most two). Warm reuses the clean components' flows, cold is the
//       full re-solve — the headline is the real_time ratio (>= 2x is the
//       PR's acceptance bar).
//   BM_Rotation/incremental/W — per-window serving cost over W windows
//       (1-window segments = 6 rotations per day). The sorted spine makes
//       each rotation O(carryover + new). Eviction is on, the serving
//       default, so the store holds only the live tail and does not grow
//       with W; the per-window cost stays flat. (Before the rebuild
//       reference moved to tests/oracles, this row ran with eviction off
//       and the store grew with W.)
//   BM_Interference/{dedicated,shared_slice} — the soak topology (sharded
//       threaded sessions + background refresh) with the PR 6 dedicated
//       refresher thread vs the shared pool + analytical PoolSlice layout.
//       Counters expose shard decision p99 alongside refresh wall time —
//       the isolation story in both directions.
//   BM_RefreshNow/{unchanged,changed} — one inline refresh cycle on the
//       Beijing x0.5 day BM_GuideCity solves (bench_parallel). unchanged
//       repeats one prediction, so every cycle republishes the remembered
//       guide; changed alternates two predictions one task apart, so every
//       cycle solves. tools/check_bench_regression.py requires unchanged
//       to cost at most 1% of changed within one run.
//
// The clustered workload mirrors tests/core/guide_warm_refresh_test.cc: at
// dense city scale the type-pair network is one giant component and warm
// reuse only fires on identical predictions, so the sparse-delta claim is
// exercised where it holds — clustered demand pockets out of feasibility
// reach of each other.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/guide_generator.h"
#include "core/prediction_matrix.h"
#include "gen/config.h"
#include "harness.h"
#include "serve/guide_refresher.h"
#include "serve/service_harness.h"
#include "spatial/spacetime.h"
#include "util/rng.h"

namespace ftoa {
namespace {

/// Aborts with the status message; benches have no caller to report to.
template <typename ResultT>
auto DieUnless(ResultT result) {
  if (!result.ok()) {
    std::fprintf(stderr, "bench_refresh: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

void DieUnlessOk(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench_refresh: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// Family 1: warm vs cold guide refresh on a sparse-delta sequence.
// ---------------------------------------------------------------------------

/// Cluster c occupies kClusterCells adjacent cells with kGapCells empty
/// cells before the next one. Velocity 2 with durations 3/2 gives a
/// feasibility reach of ~6 units; the 8-unit gap keeps every cluster its
/// own component, while within a cluster most cell pairs connect — each
/// component is a real min-cost solve, not a toy.
constexpr int kClusterCells = 8;
constexpr int kGapCells = 4;
constexpr int kClusterStride = kClusterCells + kGapCells;
constexpr double kCellSize = 2.0;

SpacetimeSpec ClusteredSpec(int clusters) {
  const int cells = kClusterStride * clusters;
  return SpacetimeSpec(SlotSpec(2.0, 1),
                       GridSpec(kCellSize * cells, kCellSize, cells, 1));
}

GuideOptions RefreshOptions(GuideRefreshMode mode) {
  GuideOptions options;
  options.engine = GuideOptions::Engine::kCompressedMinCost;
  options.refresh_mode = mode;
  options.worker_duration = 3.0;
  options.task_duration = 2.0;
  return options;
}

/// One cluster's demand: a (workers, tasks) pair per occupied cell.
using ClusterCounts = std::vector<std::pair<int, int>>;

PredictionMatrix MakePrediction(const SpacetimeSpec& st,
                                const std::vector<ClusterCounts>& clusters) {
  PredictionMatrix prediction(st);
  for (size_t c = 0; c < clusters.size(); ++c) {
    for (size_t i = 0; i < clusters[c].size(); ++i) {
      const int col =
          kClusterStride * static_cast<int>(c) + static_cast<int>(i);
      const TypeId type = st.TypeAt(0, st.grid().CellAt(col, 0));
      prediction.set_workers_at(type, clusters[c][i].first);
      prediction.set_tasks_at(type, clusters[c][i].second);
    }
  }
  return prediction;
}

ClusterCounts DrawCluster(Rng* rng) {
  ClusterCounts counts;
  for (int i = 0; i < kClusterCells; ++i) {
    counts.emplace_back(static_cast<int>(10 + rng->NextBounded(50)),
                        static_cast<int>(10 + rng->NextBounded(50)));
  }
  return counts;
}

/// A cyclic sparse-delta sequence: prediction i is the base with cluster
/// (i * 3) % clusters swapped to its alternate demand. Consecutive steps —
/// including the iteration-boundary wrap — differ in at most two clusters,
/// so a warm refresh re-solves at most 2 of `clusters` components.
std::vector<PredictionMatrix> SparseDeltaSequence(int clusters, int steps) {
  Rng rng(20260808ULL);
  std::vector<ClusterCounts> base, alt;
  for (int c = 0; c < clusters; ++c) {
    base.push_back(DrawCluster(&rng));
    alt.push_back(DrawCluster(&rng));
  }
  const SpacetimeSpec st = ClusteredSpec(clusters);
  std::vector<PredictionMatrix> sequence;
  for (int i = 0; i < steps; ++i) {
    auto counts = base;
    const size_t dirty = static_cast<size_t>((i * 3) % clusters);
    counts[dirty] = alt[dirty];
    sequence.push_back(MakePrediction(st, counts));
  }
  return sequence;
}

void BM_GuideRefresh(benchmark::State& state, GuideRefreshMode mode) {
  const int clusters = static_cast<int>(state.range(0));
  constexpr int kSteps = 8;
  const auto sequence = SparseDeltaSequence(clusters, kSteps);
  // The generator persists across iterations: after the first (cold
  // bootstrap) call, every warm Generate sees the previous step's cache —
  // the refresher's steady state.
  const GuideGenerator generator(2.0, RefreshOptions(mode));
  int64_t refreshes = 0;
  for (auto _ : state) {
    for (const PredictionMatrix& prediction : sequence) {
      auto guide = DieUnless(generator.Generate(prediction));
      benchmark::DoNotOptimize(guide);
    }
    refreshes += kSteps;
  }
  state.SetItemsProcessed(refreshes);
  const GuideRefreshStats& stats = generator.last_refresh_stats();
  state.counters["components"] = static_cast<double>(stats.components_total);
  state.counters["reused"] = static_cast<double>(stats.components_reused);
  state.counters["pairs_total"] = static_cast<double>(stats.pairs_total);
  state.counters["pairs_reused"] = static_cast<double>(stats.pairs_reused);
}

// ---------------------------------------------------------------------------
// Family 2: segment rotation cost as the served window count grows.
// ---------------------------------------------------------------------------

CityProfile RotationCity() {
  CityProfile profile;
  profile.name = "bench-rotation";
  profile.grid_x = 8;
  profile.grid_y = 6;
  profile.slots_per_day = 6;
  profile.history_days = 5;
  profile.workers_per_day = 300;
  profile.tasks_per_day = 330;
  profile.velocity = 3.0;
  profile.task_duration = 1.0;
  profile.worker_duration = 2.0;
  profile.seed = 2017;
  return profile;
}

void BM_Rotation(benchmark::State& state) {
  const int64_t windows = state.range(0);
  ServiceOptions options;
  options.algorithm = "simple-greedy";  // Cheap decisions: rotation shows.
  options.windows_per_segment = 1;      // Six rotations per day.
  int64_t processed = 0;
  ServiceTotals last;
  int64_t last_store = 0;
  for (auto _ : state) {
    auto harness = DieUnless(ServiceHarness::Create(
        RotationCity(), LoopedTraceSource::Options{}, options));
    DieUnlessOk(harness->RunWindows(windows));
    processed += windows;
    last = harness->totals();
    last_store = harness->store_size();
  }
  state.SetItemsProcessed(processed);
  state.counters["matched"] = static_cast<double>(last.matched);
  state.counters["store"] = static_cast<double>(last_store);
  state.counters["segments"] = static_cast<double>(last.segments);
}

// ---------------------------------------------------------------------------
// Family 3: background-refresh interference — dedicated vs shared slice.
// ---------------------------------------------------------------------------

CityProfile InterferenceCity() {
  CityProfile profile;
  profile.name = "bench-interference";
  profile.grid_x = 20;
  profile.grid_y = 20;
  profile.slots_per_day = 6;
  profile.history_days = 5;
  profile.workers_per_day = 12000;
  profile.tasks_per_day = 13000;
  profile.velocity = 3.0;
  profile.task_duration = 1.0;
  profile.worker_duration = 2.0;
  profile.seed = 2017;
  return profile;
}

void BM_Interference(benchmark::State& state, int analytical_slice) {
  const int64_t windows = state.range(0);
  ServiceOptions options;
  options.num_shards = 2;
  options.shard_threads = 2;
  options.background_refresh = true;
  options.refresh_period_windows = 2;
  options.refresh.timeout_ms = 30000.0;
  options.guide.engine = GuideOptions::Engine::kCompressed;
  options.guide.refresh_mode = GuideRefreshMode::kWarm;
  options.analytical_slice = analytical_slice;
  int64_t processed = 0;
  double p99 = 0.0;
  ServiceTotals last;
  for (auto _ : state) {
    auto harness = DieUnless(ServiceHarness::Create(
        InterferenceCity(), LoopedTraceSource::Options{}, options));
    DieUnlessOk(harness->RunWindows(windows));
    processed += windows;
    p99 = 0.0;
    for (const WindowMetrics& w : harness->windows()) {
      p99 = std::max(p99, w.p99_ms);
    }
    last = harness->totals();
  }
  state.SetItemsProcessed(processed);
  state.counters["shard_p99_ms"] = p99;
  state.counters["matched"] = static_cast<double>(last.matched);
  state.counters["publishes"] =
      static_cast<double>(last.warm_refreshes + last.cold_refreshes);
  state.counters["refresh_ms"] = last.refresh_ms;
}

// ---------------------------------------------------------------------------
// Family 4: inline refresh cycle, unchanged vs changed prediction.
// ---------------------------------------------------------------------------

void BM_RefreshNow(benchmark::State& state, bool unchanged) {
  const CityProfile profile = BeijingProfile();
  GuideOptions options;
  options.worker_duration = profile.worker_duration;
  options.task_duration = profile.task_duration;
  GuideRefresher refresher(profile.velocity, options,
                           GuideRefresher::Options{});
  GuideSlot slot;
  const PredictionMatrix base = bench::BeijingHalfDayPrediction();
  PredictionMatrix bumped = base;
  bumped.set_tasks_at(0, base.tasks_at(0) + 1);
  const PredictionMatrix* predictions[2] = {&base,
                                            unchanged ? &base : &bumped};
  int64_t window = 0;
  // Primes the memo; the first measured cycle of `changed` then solves
  // `bumped`.
  DieUnless(refresher.RefreshNow(base, window++, &slot));
  int64_t republished = 0;
  for (auto _ : state) {
    const auto published = DieUnless(refresher.RefreshNow(
        *predictions[window % 2], window, &slot));
    benchmark::DoNotOptimize(published);
    ++window;
    republished += refresher.last_cycle().unchanged ? 1 : 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["republished"] = static_cast<double>(republished);
  state.counters["matched"] =
      static_cast<double>(slot.Get().guide->matched_pairs());
}

BENCHMARK_CAPTURE(BM_GuideRefresh, cold, GuideRefreshMode::kCold)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GuideRefresh, warm, GuideRefreshMode::kWarm)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Named as before the rebuild row left, so BENCH_refresh.json stays
// comparable row for row.
BENCHMARK(BM_Rotation)
    ->Name("BM_Rotation/incremental")
    ->Arg(96)
    ->Arg(288)
    ->Arg(864)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_Interference, dedicated, 0)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Interference, shared_slice, 1)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond);

// One time unit for both rows: the checker compares their real_time.
BENCHMARK_CAPTURE(BM_RefreshNow, unchanged, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_RefreshNow, changed, false)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ftoa

BENCHMARK_MAIN();
