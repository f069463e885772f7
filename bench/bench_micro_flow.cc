// Microbenchmark for the flow/matching engine overhaul:
//
//  * BM_MinCostFlowDijkstra — the production solver (Dijkstra over
//    Johnson reduced costs, binary heap, reusable arenas) on dense random
//    bipartite assignment networks. The SPFA solver it replaced (~5x
//    slower at 2048 x 2048) is now a test oracle only
//    (tests/oracles/spfa_min_cost_flow).
//  * BM_MinCostFlowEngine/<shape>_<engine> — the FlowEngine shape sweep
//    behind ChooseFlowEngine's crossover table (docs/flow_engines.md):
//    each registered engine (ssp, blocking-ssp, cost-scaling, auto) on the
//    three canonical instance shapes — `dense` (unit-capacity bipartite,
//    distinct 1e6-range costs), `ties` (unit-capacity bipartite,
//    small-integer travel costs, the guide generator's regime), and
//    `heavy` (high-capacity compressed type-pair networks). The `auto`
//    rows certify that kAuto lands on the measured winner per shape.
//  * BM_MinCostFlowSmallSupply/<shape>_<engine>/<n>/<degree>/<supply> —
//    the same networks with the source's capacity capped at `supply`
//    units, the regime ChooseFlowEngine sends to ssp (supply <= 256)
//    whatever the network size.
//  * BM_MinCostFlowArenaReuse — same solve through a long-lived solver
//    whose Reset() keeps the edge arena and scratch buffers, the usage
//    pattern of guide generation in a live deployment.
//  * BM_DinicCityNetwork — the max-flow layer of the serving loop's guide
//    solve: the compressed type-pair network of a Beijing x0.5 day (one
//    component, ~175k pairs) loaded into one long-lived FlowGraph and
//    solved by one long-lived DinicSolver per iteration, the arena pattern
//    of GuideGenerator. Covers AddEdge, BuildAdjacency and the solve.
//  * BM_DynamicMatchingArrivals vs BM_HopcroftKarpRebuildPerArrival — the
//    incremental matcher's per-arrival augmenting-path cost against
//    rebuilding a Hopcroft-Karp instance per arrival (the TGOA/GR pattern
//    this PR removed). The rebuild leg is quadratic, so it only runs at
//    small sizes.
//
// tools/run_bench_smoke.sh runs this binary and records BENCH_flow.json
// for the perf trajectory across PRs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/guide_generator.h"
#include "flow/dinic.h"
#include "flow/dynamic_matching.h"
#include "flow/hopcroft_karp.h"
#include "flow/graph.h"
#include "flow/min_cost_flow.h"
#include "gen/config.h"
#include "harness.h"
#include "util/rng.h"

namespace ftoa {
namespace {

// Dense random assignment network: unit-capacity source/worker/task/sink
// layout with `degree` random cost edges per worker (costs in the 1e6
// fixed-point range the guide generator uses for travel times).
void BuildAssignment(MinCostFlowGraph& g, int32_t n, int32_t degree,
                     uint64_t seed) {
  Rng rng(seed);
  const int32_t source = 0;
  const int32_t sink = 1 + 2 * n;
  g.Reset(sink + 1);
  g.ReserveEdges(static_cast<size_t>(n) * (static_cast<size_t>(degree) + 2));
  for (int32_t w = 0; w < n; ++w) g.AddEdge(source, 1 + w, 1, 0);
  for (int32_t r = 0; r < n; ++r) g.AddEdge(1 + n + r, sink, 1, 0);
  for (int32_t w = 0; w < n; ++w) {
    for (int32_t d = 0; d < degree; ++d) {
      g.AddEdge(1 + w,
                1 + n + static_cast<int32_t>(
                            rng.NextBounded(static_cast<uint64_t>(n))),
                1, 1 + static_cast<int64_t>(rng.NextBounded(1'000'000)));
    }
  }
}

void BM_MinCostFlowDijkstra(benchmark::State& state) {
  const int32_t n = static_cast<int32_t>(state.range(0));
  const int32_t degree = static_cast<int32_t>(state.range(1));
  MinCostFlowGraph g;
  int64_t flow = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BuildAssignment(g, n, degree, 42);
    state.ResumeTiming();
    flow = g.Solve(0, 1 + 2 * n).flow;
    benchmark::DoNotOptimize(flow);
  }
  state.counters["flow"] = static_cast<double>(flow);
  state.counters["path_searches"] = static_cast<double>(g.path_searches());
}
BENCHMARK(BM_MinCostFlowDijkstra)
    ->Args({512, 16})
    ->Args({1024, 32})
    ->Args({2048, 48})
    ->Unit(benchmark::kMillisecond);

// The FlowEngine shape sweep. Three canonical shapes:
//  * kDense — BuildAssignment above: unit capacities, all-distinct costs.
//    Nearly every shortest-path cost class is unique, so one blocking
//    phase admits few paths; the per-search engines fight it out here.
//  * kTies  — same layout, costs in {1..4}: the guide generator's regime
//    (quantized travel times collide constantly). Each cost class admits
//    many vertex-disjoint paths, the blocking engine's territory.
//  * kHeavy — compressed type-pair shape: few nodes, capacities in the
//    hundreds. Per-unit augmentation pays per unit; cost-scaling's
//    network-size-bound refine is the point of this shape.
enum class BenchShape { kDense, kTies, kHeavy };

// `supply` > 0 caps the source's total capacity: unit shapes keep the
// first `supply` source edges, heavy clips its capacities in order. The
// random draws are the same either way, so the rest of the network is the
// uncapped one.
void BuildShaped(MinCostFlowGraph& g, BenchShape shape, int32_t n,
                 int32_t degree, uint64_t seed, int64_t supply) {
  int64_t remaining =
      supply > 0 ? supply : std::numeric_limits<int64_t>::max();
  if (shape != BenchShape::kHeavy) {
    Rng rng(seed);
    const int32_t source = 0;
    const int32_t sink = 1 + 2 * n;
    const uint64_t cost_range =
        shape == BenchShape::kTies ? 4 : 1'000'000;
    g.Reset(sink + 1);
    g.ReserveEdges(static_cast<size_t>(n) *
                   (static_cast<size_t>(degree) + 2));
    for (int32_t w = 0; w < n && remaining > 0; ++w, --remaining) {
      g.AddEdge(source, 1 + w, 1, 0);
    }
    for (int32_t r = 0; r < n; ++r) g.AddEdge(1 + n + r, sink, 1, 0);
    for (int32_t w = 0; w < n; ++w) {
      for (int32_t d = 0; d < degree; ++d) {
        g.AddEdge(1 + w,
                  1 + n + static_cast<int32_t>(
                              rng.NextBounded(static_cast<uint64_t>(n))),
                  1, 1 + static_cast<int64_t>(rng.NextBounded(cost_range)));
      }
    }
    return;
  }
  Rng rng(seed);
  const int32_t source = 0;
  const int32_t sink = 1 + 2 * n;
  g.Reset(sink + 1);
  g.ReserveEdges(static_cast<size_t>(n) * (static_cast<size_t>(degree) + 2));
  for (int32_t w = 0; w < n; ++w) {
    const int64_t cap = std::min(
        remaining, 1 + static_cast<int64_t>(rng.NextBounded(256)));
    if (cap == 0) continue;
    g.AddEdge(source, 1 + w, cap, 0);
    remaining -= cap;
  }
  for (int32_t r = 0; r < n; ++r) {
    g.AddEdge(1 + n + r, sink, 1 + static_cast<int64_t>(rng.NextBounded(256)),
              0);
  }
  for (int32_t w = 0; w < n; ++w) {
    for (int32_t d = 0; d < degree; ++d) {
      g.AddEdge(1 + w,
                1 + n + static_cast<int32_t>(
                            rng.NextBounded(static_cast<uint64_t>(n))),
                1 + static_cast<int64_t>(rng.NextBounded(256)),
                1 + static_cast<int64_t>(rng.NextBounded(1'000'000)));
    }
  }
}

void RunEngine(benchmark::State& state, FlowEngine engine, BenchShape shape,
               int64_t supply) {
  const int32_t n = static_cast<int32_t>(state.range(0));
  const int32_t degree = static_cast<int32_t>(state.range(1));
  MinCostFlowGraph g;
  MinCostFlowGraph::Outcome outcome;
  for (auto _ : state) {
    state.PauseTiming();
    BuildShaped(g, shape, n, degree, 42, supply);
    state.ResumeTiming();
    outcome = g.Solve(0, 1 + 2 * n, engine);
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["flow"] = static_cast<double>(outcome.flow);
  state.counters["cost"] = static_cast<double>(outcome.cost);
  state.counters["path_searches"] = static_cast<double>(g.path_searches());
  state.counters["blocking_phases"] =
      static_cast<double>(g.blocking_phases());
  state.counters["refine_rounds"] = static_cast<double>(g.refine_rounds());
}

void BM_MinCostFlowEngine(benchmark::State& state, FlowEngine engine,
                          BenchShape shape) {
  RunEngine(state, engine, shape, /*supply=*/0);
}

void BM_MinCostFlowSmallSupply(benchmark::State& state, FlowEngine engine,
                               BenchShape shape) {
  RunEngine(state, engine, shape, state.range(2));
}

// One row per engine; the trailing arguments are the row's Args.
#define FTOA_ENGINE_BENCH(bench, shape_tag, shape, ...)                      \
  BENCHMARK_CAPTURE(bench, shape_tag##_ssp, FlowEngine::kSsp, shape)         \
      ->Args({__VA_ARGS__})                                                  \
      ->Unit(benchmark::kMillisecond);                                       \
  BENCHMARK_CAPTURE(bench, shape_tag##_blocking, FlowEngine::kBlockingSsp,   \
                    shape)                                                   \
      ->Args({__VA_ARGS__})                                                  \
      ->Unit(benchmark::kMillisecond);                                       \
  BENCHMARK_CAPTURE(bench, shape_tag##_cost_scaling,                         \
                    FlowEngine::kCostScaling, shape)                         \
      ->Args({__VA_ARGS__})                                                  \
      ->Unit(benchmark::kMillisecond);                                       \
  BENCHMARK_CAPTURE(bench, shape_tag##_auto, FlowEngine::kAuto, shape)       \
      ->Args({__VA_ARGS__})                                                  \
      ->Unit(benchmark::kMillisecond)

FTOA_ENGINE_BENCH(BM_MinCostFlowEngine, dense, BenchShape::kDense, 512, 16);
FTOA_ENGINE_BENCH(BM_MinCostFlowEngine, dense, BenchShape::kDense, 2048, 48);
FTOA_ENGINE_BENCH(BM_MinCostFlowEngine, ties, BenchShape::kTies, 512, 16);
FTOA_ENGINE_BENCH(BM_MinCostFlowEngine, ties, BenchShape::kTies, 2048, 48);
FTOA_ENGINE_BENCH(BM_MinCostFlowEngine, heavy, BenchShape::kHeavy, 128, 32);
FTOA_ENGINE_BENCH(BM_MinCostFlowEngine, heavy, BenchShape::kHeavy, 256, 32);
FTOA_ENGINE_BENCH(BM_MinCostFlowSmallSupply, ties, BenchShape::kTies, 2048,
                  48, 256);
FTOA_ENGINE_BENCH(BM_MinCostFlowSmallSupply, dense, BenchShape::kDense, 2048,
                  48, 256);
FTOA_ENGINE_BENCH(BM_MinCostFlowSmallSupply, heavy, BenchShape::kHeavy, 256,
                  32, 256);

#undef FTOA_ENGINE_BENCH

// Includes the rebuild: Reset() + edge insertion + solve through one
// long-lived arena, i.e. the steady-state cost of one guide-generation
// round without any allocation churn.
void BM_MinCostFlowArenaReuse(benchmark::State& state) {
  const int32_t n = static_cast<int32_t>(state.range(0));
  const int32_t degree = static_cast<int32_t>(state.range(1));
  MinCostFlowGraph g;
  BuildAssignment(g, n, degree, 42);  // Warm the arenas.
  g.Solve(0, 1 + 2 * n);
  for (auto _ : state) {
    BuildAssignment(g, n, degree, 42);
    benchmark::DoNotOptimize(g.Solve(0, 1 + 2 * n).flow);
  }
}
BENCHMARK(BM_MinCostFlowArenaReuse)
    ->Args({512, 16})
    ->Args({1024, 32})
    ->Unit(benchmark::kMillisecond);

// Streaming arrivals: each left arrival inserts its edges and runs one
// augmenting-path search — the incremental TGOA/GR pattern. items == one
// arrival, so items_per_second^-1 is the per-arrival cost.
void BM_DynamicMatchingArrivals(benchmark::State& state) {
  const int32_t n = static_cast<int32_t>(state.range(0));
  const int32_t degree = static_cast<int32_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(7);
    DynamicBipartiteMatcher m;
    m.ReserveNodes(static_cast<size_t>(n), static_cast<size_t>(n));
    m.ReserveEdges(static_cast<size_t>(n) * degree);
    for (int32_t r = 0; r < n; ++r) m.AddRight();
    state.ResumeTiming();
    for (int32_t l = 0; l < n; ++l) {
      const int32_t slot = m.AddLeft();
      for (int32_t d = 0; d < degree; ++d) {
        m.AddEdge(slot, static_cast<int32_t>(
                            rng.NextBounded(static_cast<uint64_t>(n))));
      }
      m.TryAugmentLeft(slot);
    }
    benchmark::DoNotOptimize(m.matching_size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DynamicMatchingArrivals)
    ->Args({1024, 8})
    ->Args({4096, 8})
    ->Unit(benchmark::kMillisecond);

// The historical pattern: a fresh Hopcroft-Karp over the full revealed
// graph per arrival. Quadratic — kept at small sizes as the contrast.
void BM_HopcroftKarpRebuildPerArrival(benchmark::State& state) {
  const int32_t n = static_cast<int32_t>(state.range(0));
  const int32_t degree = static_cast<int32_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(7);
    std::vector<std::pair<int32_t, int32_t>> edges;
    edges.reserve(static_cast<size_t>(n) * degree);
    state.ResumeTiming();
    int64_t matching = 0;
    for (int32_t l = 0; l < n; ++l) {
      for (int32_t d = 0; d < degree; ++d) {
        edges.emplace_back(l, static_cast<int32_t>(rng.NextBounded(
                                  static_cast<uint64_t>(n))));
      }
      HopcroftKarp hk(l + 1, n);
      hk.ReserveEdges(edges.size());
      for (const auto& [u, v] : edges) hk.AddEdge(u, v);
      matching = hk.Solve();
    }
    benchmark::DoNotOptimize(matching);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HopcroftKarpRebuildPerArrival)
    ->Args({256, 8})
    ->Args({1024, 8})
    ->Unit(benchmark::kMillisecond);

void BM_DinicCityNetwork(benchmark::State& state) {
  // The network GuideGenerator builds for this one-component day: compact
  // type nodes in first-use order over the pairs, supply and demand edges,
  // then one edge per pair with capacity min(workers, tasks).
  const CityProfile profile = BeijingProfile();
  const PredictionMatrix prediction = bench::BeijingHalfDayPrediction();
  GuideOptions options;
  options.worker_duration = profile.worker_duration;
  options.task_duration = profile.task_duration;
  const GuideGenerator generator(profile.velocity, options);
  const std::vector<TypePairEdge>& pairs =
      generator.FeasibleTypePairs(prediction);
  const auto num_types =
      static_cast<size_t>(prediction.spacetime().num_types());
  std::vector<NodeId> worker_node(num_types, -1);
  std::vector<NodeId> task_node(num_types, -1);
  std::vector<TypeId> worker_types;
  std::vector<TypeId> task_types;
  for (const TypePairEdge& pair : pairs) {
    NodeId& w = worker_node[static_cast<size_t>(pair.worker_type)];
    if (w < 0) {
      w = static_cast<NodeId>(worker_types.size());
      worker_types.push_back(pair.worker_type);
    }
    NodeId& t = task_node[static_cast<size_t>(pair.task_type)];
    if (t < 0) {
      t = static_cast<NodeId>(task_types.size());
      task_types.push_back(pair.task_type);
    }
  }
  const auto workers = static_cast<NodeId>(worker_types.size());
  const auto tasks = static_cast<NodeId>(task_types.size());
  const NodeId sink = workers + tasks + 1;
  FlowGraph graph;
  DinicSolver solver;
  int64_t flow = 0;
  for (auto _ : state) {
    graph.Reset(sink + 1);
    graph.ReserveEdges(static_cast<size_t>(workers + tasks) + pairs.size());
    for (NodeId i = 0; i < workers; ++i) {
      const TypeId type = worker_types[static_cast<size_t>(i)];
      graph.AddEdge(0, 1 + i, prediction.workers_at(type));
    }
    for (NodeId j = 0; j < tasks; ++j) {
      const TypeId type = task_types[static_cast<size_t>(j)];
      graph.AddEdge(1 + workers + j, sink, prediction.tasks_at(type));
    }
    for (const auto& [wt, tt] : pairs) {
      graph.AddEdge(1 + worker_node[static_cast<size_t>(wt)],
                    1 + workers + task_node[static_cast<size_t>(tt)],
                    std::min<int64_t>(prediction.workers_at(wt),
                                      prediction.tasks_at(tt)));
    }
    flow = solver.Solve(&graph, 0, sink);
    benchmark::DoNotOptimize(flow);
  }
  state.counters["pairs"] = static_cast<double>(pairs.size());
  state.counters["matched"] = static_cast<double>(flow);
}
BENCHMARK(BM_DinicCityNetwork)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ftoa

BENCHMARK_MAIN();
