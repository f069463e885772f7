// Sharded-dispatcher benchmark: throughput and per-decision latency of the
// ShardedDispatcher serving path versus the single-session streaming
// baseline, across shard counts, queue-handoff modes (per-event vs
// batched), and the three routers. The `matched` counter exposes the
// utility side of the tradeoff — shards cannot match across the partition
// boundary, so matching size degrades as the shard count grows — and the
// `reconciled` counter shows how much of that loss the post-merge
// boundary-reconciliation pass wins back per router. The BM_ReconcilePass
// rows time that pass alone, on the caller vs on a lent pool.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/algorithm_registry.h"
#include "core/guide_generator.h"
#include "gen/synthetic.h"
#include "sim/runner.h"
#include "sim/sharded_dispatcher.h"

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
  AlgorithmDeps deps;
};

/// Aborts with the status message; benches have no caller to report to.
template <typename ResultT>
auto DieUnless(ResultT result) {
  if (!result.ok()) {
    std::fprintf(stderr, "bench_sharded: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

Workload MakeWorkload(int64_t objects) {
  const SyntheticConfig config = ConfigForSize(objects);
  auto instance = DieUnless(GenerateSyntheticInstance(config));
  auto prediction = DieUnless(GenerateSyntheticPrediction(config));
  GuideOptions options;
  options.engine = GuideOptions::Engine::kAuto;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;
  auto guide = DieUnless(
      GuideGenerator(config.velocity, options).Generate(prediction));
  Workload workload;
  workload.instance = std::make_unique<Instance>(std::move(instance));
  workload.deps.guide =
      std::make_shared<const OfflineGuide>(std::move(guide));
  return workload;
}

/// The unsharded reference: one streaming session via the runner (the same
/// replay BM_Sharded's shard-1 case routes, minus dispatcher overhead).
void RunSingleSession(benchmark::State& state,
                      const std::string& algorithm_name, int64_t objects) {
  const Workload workload = MakeWorkload(objects);
  const auto algorithm =
      DieUnless(CreateAlgorithm(algorithm_name, workload.deps));
  RunnerOptions options;
  options.streaming = true;
  int64_t decisions = 0;
  RunMetrics last;
  for (auto _ : state) {
    last = DieUnless(
        RunAlgorithm(algorithm.get(), *workload.instance, options));
    decisions += last.decisions;
  }
  state.SetItemsProcessed(decisions);
  state.counters["matched"] = static_cast<double>(last.matching_size);
  state.counters["p50_ns"] = last.decision_latency_p50_ns;
  state.counters["p99_ns"] = last.decision_latency_p99_ns;
}

/// The sharded serving path; state.range(0) is the shard count.
/// num_threads 0 is the serving default, min(shards, cores); 1 feeds every
/// shard inline; the shard count pins one actor thread per shard (the
/// handoff-mode comparison needs the cross-thread path even on small
/// hosts). handoff_batch <= 0 keeps the dispatcher default (batched); 1 is
/// the per-event reference.
void RunSharded(benchmark::State& state, const std::string& algorithm_name,
                ShardRouterKind router, int64_t objects, int handoff_batch,
                bool reconcile, int num_threads = 0) {
  const Workload workload = MakeWorkload(objects);
  ShardedOptions options;
  options.algorithm = algorithm_name;
  options.num_shards = static_cast<int>(state.range(0));
  options.num_threads = num_threads;
  options.router = router;
  if (handoff_batch > 0) options.handoff_batch = handoff_batch;
  options.reconcile = reconcile;
  const auto dispatcher =
      DieUnless(ShardedDispatcher::Create(options, workload.deps));
  int64_t decisions = 0;
  RunMetrics last;
  for (auto _ : state) {
    const ShardedRunResult result = DieUnless(
        dispatcher->Run(*workload.instance, /*collect_dispatches=*/false));
    last = result.metrics;
    decisions += last.decisions;
  }
  state.SetItemsProcessed(decisions);
  state.counters["matched"] = static_cast<double>(last.matching_size);
  state.counters["reconciled"] = static_cast<double>(last.reconciled_pairs);
  state.counters["p50_ns"] = last.decision_latency_p50_ns;
  state.counters["p99_ns"] = last.decision_latency_p99_ns;
}

/// The boundary-reconciliation pass alone, on the merged assignment of a
/// 4-shard run: state.range(0) = 0 runs discovery on the caller only, N > 0
/// lends it a pool of N threads (as a threaded ShardedSession::Finish
/// does). The pass's output is the same for every pool.
void RunReconcilePass(benchmark::State& state,
                      const std::string& algorithm_name,
                      ShardRouterKind router_kind, int64_t objects) {
  const Workload workload = MakeWorkload(objects);
  ShardedOptions sharded;
  sharded.algorithm = algorithm_name;
  sharded.num_shards = 4;
  sharded.router = router_kind;
  const auto dispatcher =
      DieUnless(ShardedDispatcher::Create(sharded, workload.deps));
  const Assignment merged =
      DieUnless(dispatcher->Run(*workload.instance, false)).assignment;
  const auto algorithm =
      DieUnless(CreateAlgorithm(algorithm_name, workload.deps));
  const std::unique_ptr<ShardRouter> router =
      MakeShardRouter(router_kind, *workload.instance, sharded.num_shards);
  std::unique_ptr<ThreadPool> pool;
  ReconcileOptions options;
  options.policy = algorithm->feasibility_policy();
  options.guide = algorithm->guide();
  if (state.range(0) > 0) {
    pool = std::make_unique<ThreadPool>(static_cast<int>(state.range(0)));
    options.pool = pool.get();
  }
  ReconcileStats last;
  for (auto _ : state) {
    state.PauseTiming();
    Assignment assignment = merged;
    state.ResumeTiming();
    last = DieUnless(ReconcileShardBoundary(*workload.instance, *router,
                                            options, &assignment));
  }
  state.SetItemsProcessed(state.iterations() * last.boundary_workers);
  state.counters["boundary_workers"] =
      static_cast<double>(last.boundary_workers);
  state.counters["recovered"] = static_cast<double>(last.recovered_pairs);
  state.counters["examined_per_query"] =
      static_cast<double>(last.retrieval.candidates_examined) /
      static_cast<double>(std::max<int64_t>(1, last.retrieval.queries));
}

void BM_SingleSession(benchmark::State& state, const std::string& name,
                      int64_t objects) {
  RunSingleSession(state, name, objects);
}
void BM_ShardedGrid(benchmark::State& state, const std::string& name,
                    int64_t objects) {
  RunSharded(state, name, ShardRouterKind::kGrid, objects,
             /*handoff_batch=*/0, /*reconcile=*/false);
}
void BM_ShardedGridPerEvent(benchmark::State& state, const std::string& name,
                            int64_t objects) {
  RunSharded(state, name, ShardRouterKind::kGrid, objects,
             /*handoff_batch=*/1, /*reconcile=*/false,
             /*num_threads=*/static_cast<int>(state.range(0)));
}
void BM_ShardedGridThreaded(benchmark::State& state, const std::string& name,
                            int64_t objects) {
  RunSharded(state, name, ShardRouterKind::kGrid, objects,
             /*handoff_batch=*/0, /*reconcile=*/false,
             /*num_threads=*/static_cast<int>(state.range(0)));
}
void BM_ShardedGridInline(benchmark::State& state, const std::string& name,
                          int64_t objects) {
  RunSharded(state, name, ShardRouterKind::kGrid, objects,
             /*handoff_batch=*/0, /*reconcile=*/false, /*num_threads=*/1);
}
void BM_ShardedHash(benchmark::State& state, const std::string& name,
                    int64_t objects) {
  RunSharded(state, name, ShardRouterKind::kHash, objects,
             /*handoff_batch=*/0, /*reconcile=*/false);
}
void BM_ShardedLoad(benchmark::State& state, const std::string& name,
                    int64_t objects) {
  RunSharded(state, name, ShardRouterKind::kLoad, objects,
             /*handoff_batch=*/0, /*reconcile=*/false);
}
void BM_ShardedGridReconciled(benchmark::State& state,
                              const std::string& name, int64_t objects) {
  RunSharded(state, name, ShardRouterKind::kGrid, objects,
             /*handoff_batch=*/0, /*reconcile=*/true);
}
void BM_ShardedHashReconciled(benchmark::State& state,
                              const std::string& name, int64_t objects) {
  RunSharded(state, name, ShardRouterKind::kHash, objects,
             /*handoff_batch=*/0, /*reconcile=*/true);
}
void BM_ShardedLoadReconciled(benchmark::State& state,
                              const std::string& name, int64_t objects) {
  RunSharded(state, name, ShardRouterKind::kLoad, objects,
             /*handoff_batch=*/0, /*reconcile=*/true);
}

void BM_ReconcilePassGrid(benchmark::State& state, const std::string& name,
                          int64_t objects) {
  RunReconcilePass(state, name, ShardRouterKind::kGrid, objects);
}
void BM_ReconcilePassHash(benchmark::State& state, const std::string& name,
                          int64_t objects) {
  RunReconcilePass(state, name, ShardRouterKind::kHash, objects);
}
void BM_ReconcilePassLoad(benchmark::State& state, const std::string& name,
                          int64_t objects) {
  RunReconcilePass(state, name, ShardRouterKind::kLoad, objects);
}

// Handoff-mode sweep: per-event vs batched on the latency-bound workload
// (~100ns POLAR-OP decisions, where the per-event mutex dominated), and
// the same 4 shards fed inline. BM_ShardedGrid resolves its threads to
// min(shards, cores), so on a 4-core host its /4 row is the threaded
// configuration too; BM_ShardedGridInline is the inline one.
BENCHMARK_CAPTURE(BM_SingleSession, polar_op_16k, "polar-op", 16000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedGrid, polar_op_16k, "polar-op", 16000)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedGridPerEvent, polar_op_16k, "polar-op", 16000)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedGridThreaded, polar_op_16k, "polar-op", 16000)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedGridInline, polar_op_16k, "polar-op", 16000)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Router sweep on the Table-4 displacement workload (supply mean 0.25 vs
// demand 0.5): matched-size per router, with and without the
// boundary-reconciliation pass.
BENCHMARK_CAPTURE(BM_ShardedHash, polar_op_16k, "polar-op", 16000)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedLoad, polar_op_16k, "polar-op", 16000)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedGridReconciled, polar_op_16k, "polar-op", 16000)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedHashReconciled, polar_op_16k, "polar-op", 16000)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedLoadReconciled, polar_op_16k, "polar-op", 16000)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The reconciliation pass of the three reconciled configurations above,
// serial (0) vs a lent pool of 3 threads (the caller makes 4 participants).
BENCHMARK_CAPTURE(BM_ReconcilePassGrid, polar_op_16k, "polar-op", 16000)
    ->Arg(0)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReconcilePassHash, polar_op_16k, "polar-op", 16000)
    ->Arg(0)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReconcilePassLoad, polar_op_16k, "polar-op", 16000)
    ->Arg(0)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_SingleSession, simple_greedy_4k, "simple-greedy", 4000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedGrid, simple_greedy_4k, "simple-greedy", 4000)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_SingleSession, gr_4k, "gr", 4000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedGrid, gr_4k, "gr", 4000)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ftoa

BENCHMARK_MAIN();
