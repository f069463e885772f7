// Serving-loop benchmark: windows-per-second and per-window cost of the
// ServiceHarness across its robustness features — segment length (session
// rebuild amortization), sharding, inline vs background guide refresh, and
// a faulted run (flash crowd + slow shard + forced refresh failures) versus
// the clean baseline, plus one city-scale day. Counters expose the
// service-side outcomes: matched pairs, evictions, shed load, and the final
// store size (the memory story — the evicting store holds only the live
// tail).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "gen/config.h"
#include "serve/service_harness.h"

namespace ftoa {
namespace {

CityProfile BenchCity() {
  CityProfile profile;
  profile.name = "bench-service";
  profile.grid_x = 8;
  profile.grid_y = 6;
  profile.slots_per_day = 6;
  profile.history_days = 5;
  profile.workers_per_day = 120;
  profile.tasks_per_day = 140;
  profile.velocity = 3.0;
  profile.task_duration = 1.0;
  profile.worker_duration = 2.0;
  profile.seed = 2017;
  return profile;
}

/// Aborts with the status message; benches have no caller to report to.
template <typename ResultT>
auto DieUnless(ResultT result) {
  if (!result.ok()) {
    std::fprintf(stderr, "bench_service: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Runs `windows` serving windows per iteration on a fresh harness (the
/// harness is stateful and unbounded, so each iteration gets its own).
void RunService(benchmark::State& state, const ServiceOptions& options,
                int64_t windows) {
  int64_t processed = 0;
  ServiceTotals last;
  int64_t last_store = 0;
  for (auto _ : state) {
    auto harness = DieUnless(ServiceHarness::Create(
        BenchCity(), LoopedTraceSource::Options{}, options));
    const Status status = harness->RunWindows(windows);
    if (!status.ok()) {
      std::fprintf(stderr, "bench_service: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    processed += windows;
    last = harness->totals();
    last_store = harness->store_size();
  }
  state.SetItemsProcessed(processed);
  state.counters["matched"] = static_cast<double>(last.matched);
  state.counters["evicted"] = static_cast<double>(last.evictions);
  state.counters["shed"] = static_cast<double>(last.shed);
  state.counters["store"] = static_cast<double>(last_store);
  state.counters["swaps"] = static_cast<double>(last.guide_swaps);
}

/// The serving default: evicting store, one-day segments, inline refresh.
void BM_ServeBaseline(benchmark::State& state) {
  ServiceOptions options;
  RunService(state, options, state.range(0));
}

/// Segment-length sweep: shorter segments rotate (and rebuild) sessions
/// more often but bound carryover replay; range(1) is windows_per_segment.
void BM_ServeSegment(benchmark::State& state) {
  ServiceOptions options;
  options.windows_per_segment = static_cast<int>(state.range(1));
  RunService(state, options, state.range(0));
}

/// Sharded threaded sessions with background refresh — the soak topology.
void BM_ServeSharded(benchmark::State& state) {
  ServiceOptions options;
  options.num_shards = static_cast<int>(state.range(1));
  options.shard_threads = static_cast<int>(state.range(1));
  options.background_refresh = true;
  options.refresh.timeout_ms = 30000.0;
  RunService(state, options, state.range(0));
}

/// The acceptance fault plan over the soak topology: what robustness costs
/// when everything goes wrong at once.
void BM_ServeFaulted(benchmark::State& state) {
  ServiceOptions options;
  options.num_shards = 3;
  options.shard_threads = 3;
  options.background_refresh = true;
  options.refresh.timeout_ms = 30000.0;
  options.refresh_period_windows = 3;
  options.max_queue_depth = 110;
  options.faults =
      "slow-shard@4-6:shard=1:stall-ms=2,guide-fail@6-600:count=2,"
      "flash@8-9:factor=6";
  options.fault_seed = 42;
  RunService(state, options, state.range(0));
}

/// The serving default at city scale: Beijing x1, one measured day after
/// an untimed warm-up day (bootstrap solve, first trace day, store and
/// calendar growth). Per-object bookkeeping — the record table and the
/// expiry calendar — shows here; BenchCity has too few objects for it.
void BM_ServeCity(benchmark::State& state) {
  const CityProfile profile = BeijingProfile();
  ServiceTotals last;
  int64_t last_store = 0;
  int64_t admitted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto harness = DieUnless(ServiceHarness::Create(
        profile, LoopedTraceSource::Options{}, ServiceOptions{}));
    Status status = harness->RunWindows(profile.slots_per_day);
    const int64_t warm_admitted = harness->totals().admitted;
    state.ResumeTiming();
    if (status.ok()) status = harness->RunWindows(profile.slots_per_day);
    if (!status.ok()) {
      std::fprintf(stderr, "bench_service: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    state.PauseTiming();
    admitted += harness->totals().admitted - warm_admitted;
    last = harness->totals();
    last_store = harness->store_size();
    harness.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(admitted);
  state.counters["matched"] = static_cast<double>(last.matched);
  state.counters["evicted"] = static_cast<double>(last.evictions);
  state.counters["store"] = static_cast<double>(last_store);
}

BENCHMARK(BM_ServeBaseline)->Arg(12)->Arg(24)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeSegment)
    ->Args({24, 1})
    ->Args({24, 2})
    ->Args({24, 3})
    ->Args({24, 6})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeSharded)
    ->Args({24, 1})
    ->Args({24, 3})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeFaulted)->Arg(24)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServeCity)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ftoa

BENCHMARK_MAIN();
