#include <gtest/gtest.h>

#include <vector>

#include "flow/dinic.h"
#include "flow/ford_fulkerson.h"
#include "flow/graph.h"
#include "util/rng.h"

namespace ftoa {
namespace {

TEST(FlowGraphTest, EdgeBookkeeping) {
  FlowGraph g(3);
  const EdgeId e = g.AddEdge(0, 1, 5);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.To(e), 1);
  EXPECT_EQ(g.Capacity(e), 5);
  EXPECT_EQ(g.Flow(e), 0);
}

TEST(MaxFlowTest, SingleEdge) {
  for (bool use_dinic : {false, true}) {
    FlowGraph g(2);
    g.AddEdge(0, 1, 7);
    const int64_t flow = use_dinic ? DinicMaxFlow(&g, 0, 1)
                                   : FordFulkersonMaxFlow(&g, 0, 1);
    EXPECT_EQ(flow, 7);
  }
}

TEST(MaxFlowTest, ClassicDiamond) {
  // s=0 -> {1, 2} -> t=3 with a cross edge; max flow = 2 with unit caps.
  for (bool use_dinic : {false, true}) {
    FlowGraph g(4);
    g.AddEdge(0, 1, 1);
    g.AddEdge(0, 2, 1);
    g.AddEdge(1, 3, 1);
    g.AddEdge(2, 3, 1);
    g.AddEdge(1, 2, 1);
    const int64_t flow = use_dinic ? DinicMaxFlow(&g, 0, 3)
                                   : FordFulkersonMaxFlow(&g, 0, 3);
    EXPECT_EQ(flow, 2);
  }
}

TEST(MaxFlowTest, RequiresResidualPushBack) {
  // The classic example where a greedy path must be undone via the
  // residual edge: s->a->b->t with a crossing s->b, a->t.
  for (bool use_dinic : {false, true}) {
    FlowGraph g(4);
    g.AddEdge(0, 1, 1);  // s->a
    g.AddEdge(1, 2, 1);  // a->b
    g.AddEdge(2, 3, 1);  // b->t
    g.AddEdge(0, 2, 1);  // s->b
    g.AddEdge(1, 3, 1);  // a->t
    const int64_t flow = use_dinic ? DinicMaxFlow(&g, 0, 3)
                                   : FordFulkersonMaxFlow(&g, 0, 3);
    EXPECT_EQ(flow, 2);
  }
}

TEST(MaxFlowTest, DisconnectedSinkGivesZero) {
  FlowGraph g(4);
  g.AddEdge(0, 1, 3);
  g.AddEdge(2, 3, 3);
  EXPECT_EQ(DinicMaxFlow(&g, 0, 3), 0);
}

TEST(MaxFlowTest, PerEdgeFlowConservation) {
  FlowGraph g(5);
  std::vector<EdgeId> edges;
  edges.push_back(g.AddEdge(0, 1, 4));
  edges.push_back(g.AddEdge(0, 2, 2));
  edges.push_back(g.AddEdge(1, 3, 3));
  edges.push_back(g.AddEdge(2, 3, 3));
  edges.push_back(g.AddEdge(3, 4, 5));
  const int64_t flow = DinicMaxFlow(&g, 0, 4);
  EXPECT_EQ(flow, 5);
  // Conservation at node 3: inflow == outflow.
  EXPECT_EQ(g.Flow(edges[2]) + g.Flow(edges[3]), g.Flow(edges[4]));
  // Source outflow equals total flow.
  EXPECT_EQ(g.Flow(edges[0]) + g.Flow(edges[1]), flow);
}

TEST(MaxFlowTest, ResidualReachabilityGivesMinCut) {
  FlowGraph g(4);
  const EdgeId bottleneck = g.AddEdge(1, 2, 1);
  g.AddEdge(0, 1, 10);
  g.AddEdge(2, 3, 10);
  EXPECT_EQ(DinicMaxFlow(&g, 0, 3), 1);
  const std::vector<bool> reachable = ResidualReachable(g, 0);
  EXPECT_TRUE(reachable[0]);
  EXPECT_TRUE(reachable[1]);
  EXPECT_FALSE(reachable[2]);
  EXPECT_FALSE(reachable[3]);
  EXPECT_EQ(g.Flow(bottleneck), 1);
}

// Property: Ford-Fulkerson and Dinic agree on random bipartite-ish graphs,
// and the flow value equals the min cut crossing capacity.
class MaxFlowPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaxFlowPropertyTest, EnginesAgreeAndMatchMinCut) {
  Rng rng(GetParam());
  const int left = 2 + static_cast<int>(rng.NextBounded(10));
  const int right = 2 + static_cast<int>(rng.NextBounded(10));
  const NodeId s = 0;
  const NodeId t = static_cast<NodeId>(1 + left + right);

  FlowGraph g1(t + 1);
  FlowGraph g2(t + 1);
  for (int i = 0; i < left; ++i) {
    const int64_t cap = 1 + static_cast<int64_t>(rng.NextBounded(3));
    g1.AddEdge(s, 1 + i, cap);
    g2.AddEdge(s, 1 + i, cap);
  }
  for (int j = 0; j < right; ++j) {
    const int64_t cap = 1 + static_cast<int64_t>(rng.NextBounded(3));
    g1.AddEdge(1 + left + j, t, cap);
    g2.AddEdge(1 + left + j, t, cap);
  }
  for (int i = 0; i < left; ++i) {
    for (int j = 0; j < right; ++j) {
      if (rng.NextBool(0.4)) {
        const int64_t cap = 1 + static_cast<int64_t>(rng.NextBounded(2));
        g1.AddEdge(1 + i, 1 + left + j, cap);
        g2.AddEdge(1 + i, 1 + left + j, cap);
      }
    }
  }
  const int64_t ff = FordFulkersonMaxFlow(&g1, s, t);
  const int64_t dinic = DinicMaxFlow(&g2, s, t);
  EXPECT_EQ(ff, dinic);

  // Max-flow equals min-cut: sum the capacities of saturated edges that
  // cross the residual-reachability cut.
  const std::vector<bool> reachable = ResidualReachable(g2, s);
  int64_t cut = 0;
  const auto num_arcs = static_cast<EdgeId>(2 * g2.num_edges());
  for (EdgeId e = 0; e < num_arcs; e += 2) {
    // Forward edges have even handles; original capacity is cap + flow.
    const NodeId u = g2.To(e ^ 1);  // Residual partner points back at u.
    const NodeId v = g2.To(e);
    if (reachable[static_cast<size_t>(u)] &&
        !reachable[static_cast<size_t>(v)]) {
      cut += g2.Capacity(e) + g2.Flow(e);
    }
  }
  EXPECT_EQ(cut, dinic);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxFlowPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace ftoa
