// FlowGraph's arc-contiguous CSR against the linked-list oracle: built from
// one edge sequence, Dinic and Ford-Fulkerson must leave every edge, read
// through the handle AddEdge returned, with the flow, residual capacities
// and heads the linked-list solvers leave on it. Equal flow values alone
// would not catch a block order that steers the solvers to another maximum
// flow; per-edge equality is what keeps guides bit-identical, and
// GuideOracleTest checks that end to end on a Beijing x0.5 day, whose
// kAuto guide is one ~175k-pair component.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/guide_generator.h"
#include "flow/dinic.h"
#include "flow/ford_fulkerson.h"
#include "flow/graph.h"
#include "gen/config.h"
#include "gen/looped_trace.h"
#include "gen/synthetic.h"
#include "oracles/linked_list_max_flow.h"
#include "util/rng.h"

namespace ftoa {
namespace {

using ftoa::testing::LinkedListMaxFlow;

struct EdgeSpec {
  NodeId u;
  NodeId v;
  int64_t cap;
};

struct Network {
  NodeId num_nodes = 0;
  NodeId source = 0;
  NodeId sink = 0;
  std::vector<EdgeSpec> edges;
};

/// Loads `net` into `graph` (rewound first) and `oracle` from one edge
/// sequence; returns the forward handles.
std::vector<EdgeId> LoadNetwork(const Network& net, FlowGraph* graph,
                                LinkedListMaxFlow* oracle) {
  graph->Reset(net.num_nodes);
  std::vector<EdgeId> ids;
  for (const EdgeSpec& edge : net.edges) {
    ids.push_back(graph->AddEdge(edge.u, edge.v, edge.cap));
    EXPECT_EQ(oracle->AddEdge(edge.u, edge.v, edge.cap), ids.back());
  }
  return ids;
}

/// Every edge read by handle, both arcs of it, against the oracle: the
/// flow, the remaining capacities and the heads.
void ExpectHandlesMatchOracle(const FlowGraph& graph,
                              const LinkedListMaxFlow& oracle,
                              const std::vector<EdgeId>& ids,
                              const std::string& label) {
  for (size_t k = 0; k < ids.size(); ++k) {
    const EdgeId e = ids[k];
    ASSERT_EQ(graph.Flow(e), oracle.Flow(e)) << label << " edge " << k;
    ASSERT_EQ(graph.Capacity(e), oracle.Capacity(e)) << label << " edge " << k;
    ASSERT_EQ(graph.Capacity(e ^ 1), oracle.Capacity(e ^ 1))
        << label << " edge " << k;
    ASSERT_EQ(graph.To(e), oracle.To(e)) << label << " edge " << k;
    ASSERT_EQ(graph.To(e ^ 1), oracle.To(e ^ 1)) << label << " edge " << k;
  }
}

void ExpectFlowsMatchOracle(const Network& net, const std::string& label) {
  for (const bool dinic : {true, false}) {
    const std::string run = label + (dinic ? " dinic" : " ford-fulkerson");
    FlowGraph graph;
    LinkedListMaxFlow oracle(net.num_nodes);
    const std::vector<EdgeId> ids = LoadNetwork(net, &graph, &oracle);
    const int64_t got = dinic
                            ? DinicMaxFlow(&graph, net.source, net.sink)
                            : FordFulkersonMaxFlow(&graph, net.source,
                                                   net.sink);
    const int64_t want = dinic ? oracle.Dinic(net.source, net.sink)
                               : oracle.FordFulkerson(net.source, net.sink);
    ASSERT_EQ(got, want) << run;
    ExpectHandlesMatchOracle(graph, oracle, ids, run);
  }
}

// Random directed multigraph: parallel and anti-parallel edges, zero
// capacities, and long paths, so Dinic runs several phases.
Network RandomGeneral(Rng& rng) {
  Network net;
  net.num_nodes = 2 + static_cast<NodeId>(rng.NextBounded(40));
  net.sink = net.num_nodes - 1;
  const uint64_t num_edges =
      rng.NextBounded(4 * static_cast<uint64_t>(net.num_nodes) + 1);
  for (uint64_t k = 0; k < num_edges; ++k) {
    const auto u = static_cast<NodeId>(
        rng.NextBounded(static_cast<uint64_t>(net.num_nodes)));
    const auto v = static_cast<NodeId>(
        rng.NextBounded(static_cast<uint64_t>(net.num_nodes)));
    if (u == v) continue;
    net.edges.push_back(
        EdgeSpec{u, v, static_cast<int64_t>(rng.NextBounded(10))});
  }
  return net;
}

// Source -> left -> right -> sink with random capacities: the shape of
// every guide network.
Network RandomBipartite(Rng& rng) {
  const NodeId left = 1 + static_cast<NodeId>(rng.NextBounded(30));
  const NodeId right = 1 + static_cast<NodeId>(rng.NextBounded(30));
  Network net;
  net.num_nodes = left + right + 2;
  net.sink = left + right + 1;
  for (NodeId i = 0; i < left; ++i) {
    net.edges.push_back(
        EdgeSpec{0, 1 + i, 1 + static_cast<int64_t>(rng.NextBounded(4))});
  }
  for (NodeId j = 0; j < right; ++j) {
    net.edges.push_back(EdgeSpec{1 + left + j, net.sink,
                                 1 + static_cast<int64_t>(rng.NextBounded(4))});
  }
  const double density = 0.05 + 0.5 * rng.NextDouble();
  for (NodeId i = 0; i < left; ++i) {
    for (NodeId j = 0; j < right; ++j) {
      if (rng.NextBool(density)) {
        net.edges.push_back(
            EdgeSpec{1 + i, 1 + left + j,
                     1 + static_cast<int64_t>(rng.NextBounded(3))});
      }
    }
  }
  return net;
}

PredictionMatrix CityDay(const CityProfile& profile, double scale, int day) {
  LoopedTraceSource::Options trace;
  trace.scale = scale;
  const LoopedTraceSource source(profile, trace);
  const std::vector<int> workers =
      source.generator().SampleDayCounts(DemandSide::kWorkers, day);
  const std::vector<int> tasks =
      source.generator().SampleDayCounts(DemandSide::kTasks, day);
  PredictionMatrix prediction(source.DaySpacetime());
  for (TypeId type = 0; type < prediction.spacetime().num_types(); ++type) {
    prediction.set_workers_at(type, workers[static_cast<size_t>(type)]);
    prediction.set_tasks_at(type, tasks[static_cast<size_t>(type)]);
  }
  return prediction;
}

GuideGenerator CityGenerator(
    const CityProfile& profile,
    int64_t node_level_edge_limit = GuideOptions{}.node_level_edge_limit) {
  GuideOptions options;
  options.worker_duration = profile.worker_duration;
  options.task_duration = profile.task_duration;
  options.node_level_edge_limit = node_level_edge_limit;
  return GuideGenerator(profile.velocity, options);
}

// The compressed guide network of `pairs`, undivided: one node per
// nonempty type in first-use order over the pairs, supply and demand edges
// first, then one edge per pair with capacity min(workers, tasks), last —
// GuideGenerator's edge order for one component.
Network CompressedGuideNetwork(const PredictionMatrix& prediction,
                               const std::vector<TypePairEdge>& pairs) {
  const size_t num_types =
      static_cast<size_t>(prediction.spacetime().num_types());
  std::vector<NodeId> worker_node(num_types, -1);
  std::vector<NodeId> task_node(num_types, -1);
  std::vector<TypeId> worker_types;
  std::vector<TypeId> task_types;
  for (const auto& [wt, tt] : pairs) {
    if (worker_node[static_cast<size_t>(wt)] < 0) {
      worker_node[static_cast<size_t>(wt)] =
          static_cast<NodeId>(worker_types.size());
      worker_types.push_back(wt);
    }
    if (task_node[static_cast<size_t>(tt)] < 0) {
      task_node[static_cast<size_t>(tt)] =
          static_cast<NodeId>(task_types.size());
      task_types.push_back(tt);
    }
  }
  const auto workers = static_cast<NodeId>(worker_types.size());
  const auto tasks = static_cast<NodeId>(task_types.size());
  Network net;
  net.num_nodes = workers + tasks + 2;
  net.sink = workers + tasks + 1;
  for (NodeId i = 0; i < workers; ++i) {
    const TypeId type = worker_types[static_cast<size_t>(i)];
    net.edges.push_back(EdgeSpec{0, 1 + i, prediction.workers_at(type)});
  }
  for (NodeId j = 0; j < tasks; ++j) {
    const TypeId type = task_types[static_cast<size_t>(j)];
    net.edges.push_back(
        EdgeSpec{1 + workers + j, net.sink, prediction.tasks_at(type)});
  }
  for (const auto& [wt, tt] : pairs) {
    net.edges.push_back(EdgeSpec{
        1 + worker_node[static_cast<size_t>(wt)],
        1 + workers + task_node[static_cast<size_t>(tt)],
        std::min<int64_t>(prediction.workers_at(wt),
                          prediction.tasks_at(tt))});
  }
  return net;
}

TEST(MaxFlowLayoutTest, GeneralGraphsMatchTheOracleEdgeForEdge) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 7919 + 1);
    ExpectFlowsMatchOracle(RandomGeneral(rng),
                           "general seed " + std::to_string(seed));
  }
}

TEST(MaxFlowLayoutTest, BipartiteGraphsMatchTheOracleEdgeForEdge) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 104729 + 3);
    ExpectFlowsMatchOracle(RandomBipartite(rng),
                           "bipartite seed " + std::to_string(seed));
  }
}

TEST(MaxFlowLayoutTest, SyntheticGuideNetworksMatchTheOracleEdgeForEdge) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 31 + 11);
    SyntheticConfig config;
    config.num_workers = 100 + static_cast<int>(rng.NextBounded(400));
    config.num_tasks = 100 + static_cast<int>(rng.NextBounded(400));
    config.grid_x = 4 + static_cast<int>(rng.NextBounded(8));
    config.grid_y = 4 + static_cast<int>(rng.NextBounded(8));
    config.num_slots = 4 + static_cast<int>(rng.NextBounded(8));
    config.velocity = rng.NextBool() ? 0.3 : 5.0;
    config.seed = seed;
    const PredictionMatrix prediction =
        GenerateSyntheticExpectedPrediction(config).value();
    GuideOptions options;
    options.worker_duration = config.worker_duration;
    options.task_duration = config.task_duration;
    const GuideGenerator generator(config.velocity, options);
    ExpectFlowsMatchOracle(
        CompressedGuideNetwork(prediction,
                               generator.FeasibleTypePairs(prediction)),
        "synthetic seed " + std::to_string(seed));
  }
}

TEST(MaxFlowLayoutTest, CityGuideNetworksMatchTheOracleEdgeForEdge) {
  for (const CityProfile& profile : {BeijingProfile(), HangzhouProfile()}) {
    const GuideGenerator generator = CityGenerator(profile);
    for (int day = 0; day < 2; ++day) {
      const PredictionMatrix prediction = CityDay(profile, 0.05, day);
      ExpectFlowsMatchOracle(
          CompressedGuideNetwork(prediction,
                                 generator.FeasibleTypePairs(prediction)),
          profile.name + " day " + std::to_string(day));
    }
  }
}

TEST(MaxFlowLayoutTest, EdgesAddedAfterASolveRebuildTheAdjacency) {
  // Solving builds the CSR; a later AddEdge must invalidate it so the
  // next solve sees the new edge.
  FlowGraph graph(4);
  const EdgeId first = graph.AddEdge(0, 1, 2);
  const EdgeId direct = graph.AddEdge(1, 3, 1);
  EXPECT_EQ(DinicMaxFlow(&graph, 0, 3), 1);
  const EdgeId late = graph.AddEdge(1, 2, 5);
  graph.AddEdge(2, 3, 5);
  EXPECT_EQ(DinicMaxFlow(&graph, 0, 3), 1);
  EXPECT_EQ(graph.Flow(late), 1);
  // The rebuild carried the first solve's residuals over.
  EXPECT_EQ(graph.Flow(first), 2);
  EXPECT_EQ(graph.Capacity(first), 0);
  EXPECT_EQ(graph.Flow(direct), 1);
  EXPECT_EQ(FordFulkersonMaxFlow(&graph, 0, 3), 0);
  graph.Reset(2);
  graph.AddEdge(0, 1, 4);
  EXPECT_EQ(DinicMaxFlow(&graph, 0, 1), 4);
}

TEST(MaxFlowLayoutTest, HandlesReadTheAddedEdgesBeforeAnyBuild) {
  FlowGraph graph(3);
  const EdgeId a = graph.AddEdge(0, 1, 4);
  const EdgeId b = graph.AddEdge(1, 2, 7);
  EXPECT_EQ(graph.To(a), 1);
  EXPECT_EQ(graph.To(a ^ 1), 0);
  EXPECT_EQ(graph.Capacity(b), 7);
  EXPECT_EQ(graph.Capacity(b ^ 1), 0);
  EXPECT_EQ(graph.Flow(b), 0);
  EXPECT_EQ(DinicMaxFlow(&graph, 0, 2), 4);
  EXPECT_EQ(graph.Flow(a), 4);
  EXPECT_EQ(graph.Capacity(b), 3);
  EXPECT_EQ(graph.To(b), 2);
}

TEST(MaxFlowLayoutTest, OneGraphAndSolverServeManyNetworks) {
  // The guide generator solves every component on one FlowGraph and one
  // DinicSolver. Alternate large and small networks so a reset graph keeps
  // larger arenas than it needs, and the solver's scratch (levels, edge
  // cursors) is sized for a bigger graph than the one it solves.
  FlowGraph graph;
  DinicSolver solver;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 6151 + 5);
    Network net = RandomBipartite(rng);
    if (seed % 4 == 1) {
      // Large: several bipartite networks side by side share a source
      // and a sink.
      for (int copy = 0; copy < 6; ++copy) {
        const Network more = RandomBipartite(rng);
        const NodeId offset = net.num_nodes;
        for (const EdgeSpec& edge : more.edges) {
          const auto shift = [&](NodeId x) {
            if (x == more.source) return net.source;
            if (x == more.sink) return net.sink;
            return offset + x - 1;
          };
          net.edges.push_back(EdgeSpec{shift(edge.u), shift(edge.v),
                                       edge.cap});
        }
        net.num_nodes += more.num_nodes - 2;
      }
    }
    const std::string label = "seed " + std::to_string(seed) + " nodes " +
                              std::to_string(net.num_nodes);
    LinkedListMaxFlow oracle(net.num_nodes);
    const std::vector<EdgeId> ids = LoadNetwork(net, &graph, &oracle);
    ASSERT_EQ(solver.Solve(&graph, net.source, net.sink),
              oracle.Dinic(net.source, net.sink))
        << label;
    ExpectHandlesMatchOracle(graph, oracle, ids, label);
  }
}

TEST(MaxFlowLayoutDeathTest, CapacityBeyondInt32Aborts) {
  FlowGraph graph(2);
  EXPECT_DEATH(graph.AddEdge(0, 1, int64_t{1} << 31), "exceeds int32");
}

/// Worker partner of every guide worker node, -1 when unmatched.
std::vector<GuideNodeId> WorkerPartners(const OfflineGuide& guide) {
  std::vector<GuideNodeId> partners;
  for (const GuideNode& node : guide.worker_nodes()) {
    partners.push_back(node.partner);
  }
  return partners;
}

/// First guide node id of each type: nodes are instantiated type by type.
std::vector<GuideNodeId> FirstNodes(const PredictionMatrix& prediction,
                                    bool workers) {
  std::vector<GuideNodeId> first;
  GuideNodeId next = 0;
  for (TypeId type = 0; type < prediction.spacetime().num_types(); ++type) {
    first.push_back(next);
    next += workers ? prediction.workers_at(type) : prediction.tasks_at(type);
  }
  return first;
}

/// Worker partners of the compressed guide of a one-component prediction,
/// solved by the oracle's Dinic; matches are realized in pair order with
/// per-type node cursors.
std::vector<GuideNodeId> OracleCompressedPartners(
    const PredictionMatrix& prediction,
    const std::vector<TypePairEdge>& pairs) {
  const Network net = CompressedGuideNetwork(prediction, pairs);
  LinkedListMaxFlow oracle(net.num_nodes);
  for (const EdgeSpec& edge : net.edges) {
    oracle.AddEdge(edge.u, edge.v, edge.cap);
  }
  oracle.Dinic(net.source, net.sink);
  const size_t first_pair_edge = net.edges.size() - pairs.size();
  const std::vector<GuideNodeId> first_worker = FirstNodes(prediction, true);
  const std::vector<GuideNodeId> first_task = FirstNodes(prediction, false);
  std::vector<GuideNodeId> partners(
      static_cast<size_t>(prediction.TotalWorkers()), -1);
  std::vector<int32_t> worker_cursor(first_worker.size(), 0);
  std::vector<int32_t> task_cursor(first_task.size(), 0);
  for (size_t k = 0; k < pairs.size(); ++k) {
    const auto wt = static_cast<size_t>(pairs[k].worker_type);
    const auto tt = static_cast<size_t>(pairs[k].task_type);
    const auto edge = static_cast<int32_t>(2 * (first_pair_edge + k));
    for (int64_t u = 0; u < oracle.Flow(edge); ++u) {
      partners[static_cast<size_t>(first_worker[wt] + worker_cursor[wt]++)] =
          first_task[tt] + task_cursor[tt]++;
    }
  }
  return partners;
}

/// Worker partners of the node-level guide (Algorithm 1's network) solved
/// by the oracle's Dinic: source 0, worker nodes, task nodes, sink; supply
/// and demand edges, then one unit edge per (worker node, task node) of
/// each pair.
std::vector<GuideNodeId> OracleNodeLevelPartners(
    const PredictionMatrix& prediction,
    const std::vector<TypePairEdge>& pairs) {
  const auto m = static_cast<int32_t>(prediction.TotalWorkers());
  const auto n = static_cast<int32_t>(prediction.TotalTasks());
  const int32_t sink = m + n + 1;
  LinkedListMaxFlow oracle(sink + 1);
  for (int32_t w = 0; w < m; ++w) oracle.AddEdge(0, 1 + w, 1);
  for (int32_t r = 0; r < n; ++r) oracle.AddEdge(1 + m + r, sink, 1);
  const std::vector<GuideNodeId> first_worker = FirstNodes(prediction, true);
  const std::vector<GuideNodeId> first_task = FirstNodes(prediction, false);
  struct PairEdge {
    int32_t edge;
    GuideNodeId worker;
    GuideNodeId task;
  };
  std::vector<PairEdge> pair_edges;
  for (const auto& [wt, tt] : pairs) {
    const GuideNodeId w0 = first_worker[static_cast<size_t>(wt)];
    const GuideNodeId r0 = first_task[static_cast<size_t>(tt)];
    for (int32_t wi = 0; wi < prediction.workers_at(wt); ++wi) {
      for (int32_t ti = 0; ti < prediction.tasks_at(tt); ++ti) {
        pair_edges.push_back(PairEdge{
            oracle.AddEdge(1 + w0 + wi, 1 + m + r0 + ti, 1), w0 + wi,
            r0 + ti});
      }
    }
  }
  oracle.Dinic(0, sink);
  std::vector<GuideNodeId> partners(static_cast<size_t>(m), -1);
  for (const PairEdge& pair : pair_edges) {
    if (oracle.Flow(pair.edge) > 0) {
      partners[static_cast<size_t>(pair.worker)] = pair.task;
    }
  }
  return partners;
}

TEST(GuideOracleTest, BeijingCompressedGuideMatchesTheOracle) {
  const PredictionMatrix prediction = CityDay(BeijingProfile(), 0.5, 0);
  const GuideGenerator generator = CityGenerator(BeijingProfile());
  const auto guide = generator.Generate(prediction);
  ASSERT_TRUE(guide.ok());
  ASSERT_EQ(generator.last_num_components(), 1);
  const std::vector<TypePairEdge>& pairs =
      generator.FeasibleTypePairs(prediction);
  EXPECT_GT(pairs.size(), 100000u);
  EXPECT_EQ(WorkerPartners(*guide),
            OracleCompressedPartners(prediction, pairs));
}

TEST(GuideOracleTest, BeijingNodeLevelGuideMatchesTheOracle) {
  const PredictionMatrix prediction = CityDay(BeijingProfile(), 0.5, 0);
  std::vector<GuideNodeId> partners;
  std::vector<TypePairEdge> pairs;
  {
    // Scoped so the generator's ~9M-edge arena is freed before the oracle
    // builds its own copy of the network.
    const GuideGenerator generator =
        CityGenerator(BeijingProfile(), int64_t{1} << 40);
    const auto guide = generator.Generate(prediction);
    ASSERT_TRUE(guide.ok());
    ASSERT_EQ(generator.last_num_components(), 0);  // Not compressed.
    partners = WorkerPartners(*guide);
    pairs = generator.FeasibleTypePairs(prediction);
  }
  EXPECT_EQ(partners, OracleNodeLevelPartners(prediction, pairs));
}

}  // namespace
}  // namespace ftoa
