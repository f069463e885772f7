// Candidate-retrieval engine benchmark: per-decision cost of the online
// algorithms that search candidates spatially (simple-greedy, TGOA), as the
// live-object count grows over a fixed service region (the paper's Figure
// 4b axis — a city densifying through the day). The paper's linear scan
// pays the whole waiting set per decision, so its cost grows linearly with
// N; the engine's best-first ring walk stops at the first ring that cannot
// beat the current best, so a denser index *shortens* the walk and its
// per-decision cost grows sublinearly — the curve BENCH_retrieval.json
// records (cells-visited percentiles come straight from the engine's own
// RetrievalStats). The approx-guide series
// measures the generation-time saving and the matched-utility gap of
// sampled type-pair networks against the exact guide, with the per-run
// certified loss bound alongside. BM_SimpleGreedyCityDay runs the engine
// on a city-scale day: Hangzhou x0.7, the greedy-dense serving workload.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/simple_greedy.h"
#include "core/algorithm_registry.h"
#include "core/guide_generator.h"
#include "gen/config.h"
#include "gen/looped_trace.h"
#include "gen/synthetic.h"
#include "model/arrival_stream.h"

namespace ftoa {
namespace {

/// Aborts with the status message; benches have no caller to report to.
template <typename ResultT>
auto DieUnless(ResultT result) {
  if (!result.ok()) {
    std::fprintf(stderr, "bench_retrieval: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Fixed 30x30 region (the scalability benches' geometry); sweeping the
/// object count sweeps the live density every query works against.
SyntheticConfig ConfigForSize(int64_t objects) {
  SyntheticConfig config;
  config.num_workers = static_cast<int>(objects);
  config.num_tasks = static_cast<int>(objects);
  config.grid_x = 30;
  config.grid_y = 30;
  config.num_slots = 24;
  // City-trace regime: the reachable disk (velocity x service window) is a
  // small fraction of the region, so the disk query is actually selective.
  config.velocity = 1.5;
  config.seed = 4321;
  return config;
}

void BM_RetrievalEngine(benchmark::State& state,
                        const std::string& algorithm_name) {
  const int64_t objects = state.range(0);
  const auto instance =
      DieUnless(GenerateSyntheticInstance(ConfigForSize(objects)));
  const auto algorithm = DieUnless(CreateAlgorithm(algorithm_name));
  int64_t decisions = 0;
  RunTrace trace;
  int64_t matched = 0;
  for (auto _ : state) {
    trace = RunTrace();
    const Assignment assignment = algorithm->Run(instance, &trace);
    matched = static_cast<int64_t>(assignment.size());
    benchmark::DoNotOptimize(matched);
    decisions += static_cast<int64_t>(instance.num_workers() +
                                      instance.num_tasks());
  }
  state.SetItemsProcessed(decisions);  // items/s = decisions per second.
  state.counters["matched"] = static_cast<double>(matched);
  if (trace.retrieval.queries > 0) {
    state.counters["cells_p50"] =
        static_cast<double>(trace.retrieval.CellsVisitedPercentile(0.50));
    state.counters["cells_p99"] =
        static_cast<double>(trace.retrieval.CellsVisitedPercentile(0.99));
    state.counters["examined_per_query"] =
        static_cast<double>(trace.retrieval.candidates_examined) /
        static_cast<double>(trace.retrieval.queries);
  }
}

BENCHMARK_CAPTURE(BM_RetrievalEngine, simple_greedy, "simple-greedy")
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Arg(8000)
    ->Arg(32000)
    ->Unit(benchmark::kMillisecond);
// TGOA adds an augmenting-path search per second-phase arrival; keep its
// sweep short.
BENCHMARK_CAPTURE(BM_RetrievalEngine, tgoa, "tgoa")
    ->Arg(2000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);

/// Simple-greedy's decision feed on the engine at city scale: day 0 of
/// Hangzhou x0.7, one session per iteration (items/s = decisions/s).
void BM_SimpleGreedyCityDay(benchmark::State& state) {
  LoopedTraceSource::Options trace;
  trace.scale = 0.7;
  const Instance instance = DieUnless(
      LoopedTraceSource(HangzhouProfile(), trace).FiniteInstance(1));
  SimpleGreedy greedy;
  const std::vector<ArrivalEvent> stream = BuildArrivalStream(instance);
  int64_t matched = 0;
  for (auto _ : state) {
    auto session = greedy.StartSession(instance);
    for (const ArrivalEvent& event : stream) {
      if (event.kind == ObjectKind::kWorker) {
        session->OnWorker(event.index, event.time);
      } else {
        session->OnTask(event.index, event.time);
      }
    }
    matched = static_cast<int64_t>(session->Finish().assignment.size());
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
  state.counters["matched"] = static_cast<double>(matched);
}
BENCHMARK(BM_SimpleGreedyCityDay)->Unit(benchmark::kMillisecond);

/// Guide generation at a sampling rate, with the matched-utility gap
/// against the exact guide and the per-run certified loss bound as
/// counters. Rate 1.0 is the exact baseline series.
void BM_ApproxGuide(benchmark::State& state, double rate) {
  const SyntheticConfig config = ConfigForSize(8000);
  const auto prediction = DieUnless(GenerateSyntheticPrediction(config));
  GuideOptions options;
  options.engine = GuideOptions::Engine::kAuto;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;
  const auto exact = DieUnless(
      GuideGenerator(config.velocity, options).Generate(prediction));

  options.approx_sample_rate = rate;
  const GuideGenerator generator(config.velocity, options);
  int64_t matched = 0;
  for (auto _ : state) {
    const auto guide = DieUnless(generator.Generate(prediction));
    matched = guide.matched_pairs();
    benchmark::DoNotOptimize(matched);
  }
  const ApproxGuideReport& report = generator.last_approx_report();
  state.counters["matched"] = static_cast<double>(matched);
  state.counters["exact_matched"] =
      static_cast<double>(exact.matched_pairs());
  state.counters["utility_gap"] =
      static_cast<double>(exact.matched_pairs() - matched);
  state.counters["loss_bound"] =
      static_cast<double>(report.utility_loss_bound);
  state.counters["sampled_pairs"] =
      static_cast<double>(report.sampled_pairs);
  state.counters["feasible_pairs"] =
      static_cast<double>(report.feasible_pairs);
}

BENCHMARK_CAPTURE(BM_ApproxGuide, rate_100, 1.0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ApproxGuide, rate_50, 0.5)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ApproxGuide, rate_25, 0.25)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ftoa

BENCHMARK_MAIN();
