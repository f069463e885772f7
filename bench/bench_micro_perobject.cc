// E14 — google-benchmark microbenchmark backing the paper's O(1)
// complexity claim (Sections 5.1-5.2): per-arrival processing cost of each
// online algorithm as the instance grows. POLAR/POLAR-OP must stay flat
// (each arrival touches one guide node); SimpleGreedy's linear scan grows
// with the number of waiting objects (its indexed row runs the retrieval
// engine); GR re-matches per window. BM_PolarOpCityDay runs POLAR-OP's
// decision feed at city scale: one Beijing x0.5 day per session.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "baselines/gr_batch.h"
#include "baselines/simple_greedy.h"
#include "core/guide_generator.h"
#include "core/polar.h"
#include "core/polar_op.h"
#include "gen/config.h"
#include "gen/looped_trace.h"
#include "gen/synthetic.h"
#include "harness.h"
#include "model/arrival_stream.h"

namespace ftoa {
namespace {

SyntheticConfig ConfigForSize(int64_t objects) {
  SyntheticConfig config;
  config.num_workers = static_cast<int>(objects);
  config.num_tasks = static_cast<int>(objects);
  config.grid_x = 30;
  config.grid_y = 30;
  config.num_slots = 24;
  config.seed = 1234;
  return config;
}

struct Workload {
  std::unique_ptr<Instance> instance;
  std::shared_ptr<const OfflineGuide> guide;
};

Workload MakeWorkload(int64_t objects) {
  const SyntheticConfig config = ConfigForSize(objects);
  auto instance = GenerateSyntheticInstance(config);
  auto prediction = GenerateSyntheticPrediction(config);
  GuideOptions options;
  options.engine = GuideOptions::Engine::kAuto;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;
  auto guide = GuideGenerator(config.velocity, options)
                   .Generate(*prediction);
  Workload workload;
  workload.instance =
      std::make_unique<Instance>(std::move(instance).value());
  workload.guide = std::make_shared<const OfflineGuide>(
      std::move(guide).value());
  return workload;
}

template <typename AlgorithmT>
void RunPerObject(benchmark::State& state, AlgorithmT& algorithm,
                  const Instance& instance) {
  int64_t objects = 0;
  for (auto _ : state) {
    Assignment assignment = algorithm.Run(instance);
    benchmark::DoNotOptimize(assignment.size());
    objects += static_cast<int64_t>(instance.num_workers() +
                                    instance.num_tasks());
  }
  state.SetItemsProcessed(objects);
  // items_per_second's reciprocal is the per-arrival processing time.
}

void BM_PolarPerObject(benchmark::State& state) {
  const Workload workload = MakeWorkload(state.range(0));
  Polar polar(workload.guide);
  RunPerObject(state, polar, *workload.instance);
}
BENCHMARK(BM_PolarPerObject)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_PolarOpPerObject(benchmark::State& state) {
  const Workload workload = MakeWorkload(state.range(0));
  PolarOp polar_op(workload.guide);
  RunPerObject(state, polar_op, *workload.instance);
}
BENCHMARK(BM_PolarOpPerObject)->Arg(1000)->Arg(4000)->Arg(16000);

/// Day 0 of the Beijing x0.5 looped trace under its bootstrap guide (the
/// solve BM_GuideCity times), fed the way `ftoa serve` feeds a segment:
/// one session per iteration, dispatch collection off.
void BM_PolarOpCityDay(benchmark::State& state) {
  LoopedTraceSource::Options trace;
  trace.scale = 0.5;
  const LoopedTraceSource source(BeijingProfile(), trace);
  auto instance = source.FiniteInstance(1);
  const CityProfile profile = BeijingProfile();
  GuideOptions options;
  options.engine = GuideOptions::Engine::kAuto;
  options.worker_duration = profile.worker_duration;
  options.task_duration = profile.task_duration;
  auto guide = GuideGenerator(profile.velocity, options)
                   .Generate(bench::BeijingHalfDayPrediction());
  if (!instance.ok() || !guide.ok()) {
    state.SkipWithError("Beijing day or guide failed");
    return;
  }
  PolarOp polar_op(std::make_shared<const OfflineGuide>(std::move(*guide)));
  const std::vector<ArrivalEvent> stream = BuildArrivalStream(*instance);
  int64_t matched = 0;
  for (auto _ : state) {
    auto session = polar_op.StartSession(*instance);
    session->set_collect_dispatches(false);
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
BENCHMARK(BM_PolarOpCityDay)->Unit(benchmark::kMillisecond);

void BM_SimpleGreedyPerObject(benchmark::State& state) {
  const Workload workload = MakeWorkload(state.range(0));
  SimpleGreedy greedy;
  RunPerObject(state, greedy, *workload.instance);
}
BENCHMARK(BM_SimpleGreedyPerObject)->Arg(1000)->Arg(4000)->Arg(16000);

/// The production indexed path: candidate search on the shared retrieval
/// engine (RetrievalMode::kEngine).
void BM_SimpleGreedyIndexedPerObject(benchmark::State& state) {
  const Workload workload = MakeWorkload(state.range(0));
  SimpleGreedy greedy(
      SimpleGreedyOptions{.retrieval = RetrievalMode::kEngine});
  RunPerObject(state, greedy, *workload.instance);
}
BENCHMARK(BM_SimpleGreedyIndexedPerObject)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_GrPerObject(benchmark::State& state) {
  const Workload workload = MakeWorkload(state.range(0));
  GrBatch gr;
  RunPerObject(state, gr, *workload.instance);
}
BENCHMARK(BM_GrPerObject)->Arg(1000)->Arg(4000)->Arg(16000);

}  // namespace
}  // namespace ftoa

BENCHMARK_MAIN();
