// Microbenchmark for guide generation and the parallel Monte-Carlo trial
// runner:
//
//  * BM_GuideCompressed / BM_GuideCompressedMinCost — guide generation on
//    a prediction whose feasibility disks stay within one cell, so the
//    compressed type-pair network decomposes into many connected
//    components, solved one after another on the calling thread.
//  * BM_GuideOneComponent — the opposite shape: a dense prediction that
//    union-finds into one giant component.
//  * BM_GuideCity — the serving loop's guide solve: a Beijing x0.5 day
//    prediction under kAuto, one ~176k-pair component on the compressed
//    max-flow network (the refresh-heavy serve workload's hot spot).
//  * BM_CompetitiveTrials — EstimateCompetitiveRatio throughput over
//    num_threads; trials fork independent RNG streams, so this scales with
//    cores.
//
// tools/run_bench_smoke.sh runs this binary and records
// BENCH_parallel.json for the perf trajectory across PRs.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/guide_generator.h"
#include "core/polar_op.h"
#include "gen/config.h"
#include "gen/synthetic.h"
#include "harness.h"
#include "sim/competitive.h"
#include "util/thread_pool.h"

namespace ftoa {
namespace {

// Many-component regime: tiny durations and a slow velocity keep each
// feasibility disk inside its own cell, so type pairs only form within a
// cell and the network shatters into per-cell components.
SyntheticConfig ShardableConfig() {
  SyntheticConfig config;
  config.num_workers = 20000;
  config.num_tasks = 20000;
  config.grid_x = 24;
  config.grid_y = 24;
  config.num_slots = 24;
  config.velocity = 0.2;
  config.task_duration = 0.5;
  config.worker_duration = 1.0;
  config.seed = 9001;
  return config;
}

// One-component regime: the paper's default physics (fast workers, long
// windows) connects the whole grid transitively.
SyntheticConfig DenseConfig() {
  SyntheticConfig config;
  config.num_workers = 20000;
  config.num_tasks = 20000;
  config.grid_x = 20;
  config.grid_y = 20;
  config.num_slots = 24;
  config.seed = 9002;
  return config;
}

void RunGuideBench(benchmark::State& state, const SyntheticConfig& config,
                   GuideOptions::Engine engine) {
  const PredictionMatrix prediction =
      GenerateSyntheticExpectedPrediction(config).value();
  GuideOptions options;
  options.engine = engine;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;
  const GuideGenerator generator(config.velocity, options);
  int64_t matched = 0;
  for (auto _ : state) {
    const auto guide = generator.Generate(prediction);
    matched = guide.ok() ? guide->matched_pairs() : -1;
    benchmark::DoNotOptimize(matched);
  }
  state.counters["components"] =
      static_cast<double>(generator.last_num_components());
  state.counters["matched"] = static_cast<double>(matched);
}

void BM_GuideCompressed(benchmark::State& state) {
  RunGuideBench(state, ShardableConfig(), GuideOptions::Engine::kCompressed);
}
BENCHMARK(BM_GuideCompressed)->Unit(benchmark::kMillisecond);

void BM_GuideCompressedMinCost(benchmark::State& state) {
  RunGuideBench(state, ShardableConfig(),
                GuideOptions::Engine::kCompressedMinCost);
}
BENCHMARK(BM_GuideCompressedMinCost)->Unit(benchmark::kMillisecond);

void BM_GuideOneComponent(benchmark::State& state) {
  RunGuideBench(state, DenseConfig(), GuideOptions::Engine::kCompressed);
}
BENCHMARK(BM_GuideOneComponent)->Unit(benchmark::kMillisecond);

void BM_GuideCity(benchmark::State& state) {
  const CityProfile profile = BeijingProfile();
  const PredictionMatrix prediction = bench::BeijingHalfDayPrediction();
  GuideOptions options;
  options.engine = GuideOptions::Engine::kAuto;
  options.worker_duration = profile.worker_duration;
  options.task_duration = profile.task_duration;
  const GuideGenerator generator(profile.velocity, options);
  int64_t matched = 0;
  for (auto _ : state) {
    const auto guide = generator.Generate(prediction);
    matched = guide.ok() ? guide->matched_pairs() : -1;
    benchmark::DoNotOptimize(matched);
  }
  state.counters["components"] =
      static_cast<double>(generator.last_num_components());
  state.counters["pairs"] =
      static_cast<double>(generator.last_refresh_stats().pairs_total);
  state.counters["matched"] = static_cast<double>(matched);
}
BENCHMARK(BM_GuideCity)->Unit(benchmark::kMillisecond);

void BM_CompetitiveTrials(benchmark::State& state) {
  SyntheticConfig config;
  config.num_workers = 400;
  config.num_tasks = 400;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  config.seed = 9003;
  const PredictionMatrix prediction =
      GenerateSyntheticExpectedPrediction(config).value();
  const IidInstanceSampler sampler(prediction, config.velocity,
                                   config.worker_duration,
                                   config.task_duration);
  GuideOptions options;
  options.engine = GuideOptions::Engine::kAuto;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;
  auto guide = std::make_shared<const OfflineGuide>(
      std::move(GuideGenerator(config.velocity, options).Generate(prediction))
          .value());
  const auto factory = [guide]() { return std::make_unique<PolarOp>(guide); };
  const int threads = static_cast<int>(state.range(0));
  const int trials = 8;
  // One pool across iterations: measure steady-state trial throughput,
  // not per-call thread spawn/join.
  ThreadPool pool(threads);
  for (auto _ : state) {
    const auto estimate = EstimateCompetitiveRatio(sampler, factory, trials,
                                                   7, threads, &pool);
    benchmark::DoNotOptimize(estimate.ok() ? estimate->mean_ratio : -1.0);
  }
  state.SetItemsProcessed(state.iterations() * trials);
}
BENCHMARK(BM_CompetitiveTrials)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ftoa

BENCHMARK_MAIN();
