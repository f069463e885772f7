#include "flow/ford_fulkerson.h"

#include <algorithm>
#include <vector>

namespace ftoa {

namespace {

// Iterative DFS looking for one augmenting path; returns the bottleneck
// (0 when no path exists) and augments along the path.
int64_t Augment(FlowGraph& g, NodeId source, NodeId sink,
                std::vector<int32_t>& visit_mark, int32_t epoch,
                std::vector<EdgeId>& path_edges,
                std::vector<EdgeId>& dfs_stack,
                std::vector<NodeId>& node_stack) {
  // dfs_stack holds the CSR position per depth; path_edges the chosen edge.
  path_edges.clear();
  dfs_stack.clear();
  node_stack.clear();
  node_stack.push_back(source);
  dfs_stack.push_back(g.start()[static_cast<size_t>(source)]);
  visit_mark[static_cast<size_t>(source)] = epoch;

  while (!node_stack.empty()) {
    EdgeId& it = dfs_stack.back();
    const EdgeId end = g.start()[static_cast<size_t>(node_stack.back()) + 1];
    bool advanced = false;
    while (it < end) {
      const EdgeId e = g.adj()[static_cast<size_t>(it++)];
      const NodeId v = g.To(e);
      if (g.Capacity(e) <= 0) continue;
      if (visit_mark[static_cast<size_t>(v)] == epoch) continue;
      visit_mark[static_cast<size_t>(v)] = epoch;
      path_edges.push_back(e);
      if (v == sink) {
        // Compute bottleneck and augment.
        int64_t bottleneck = g.Capacity(path_edges[0]);
        for (EdgeId pe : path_edges) {
          bottleneck = std::min(bottleneck, g.Capacity(pe));
        }
        for (EdgeId pe : path_edges) {
          g.cap()[static_cast<size_t>(pe)] -= bottleneck;
          g.cap()[static_cast<size_t>(pe ^ 1)] += bottleneck;
        }
        return bottleneck;
      }
      node_stack.push_back(v);
      dfs_stack.push_back(g.start()[static_cast<size_t>(v)]);
      advanced = true;
      break;
    }
    if (!advanced) {
      node_stack.pop_back();
      dfs_stack.pop_back();
      if (!path_edges.empty()) path_edges.pop_back();
    }
  }
  return 0;
}

}  // namespace

int64_t FordFulkersonMaxFlow(FlowGraph* graph, NodeId source, NodeId sink) {
  FlowGraph& g = *graph;
  g.BuildAdjacency();
  std::vector<int32_t> visit_mark(static_cast<size_t>(g.num_nodes()), 0);
  std::vector<EdgeId> path_edges;
  std::vector<EdgeId> dfs_stack;
  std::vector<NodeId> node_stack;
  int64_t total = 0;
  int32_t epoch = 0;
  while (true) {
    ++epoch;
    const int64_t pushed = Augment(g, source, sink, visit_mark, epoch,
                                   path_edges, dfs_stack, node_stack);
    if (pushed == 0) break;
    total += pushed;
  }
  return total;
}

}  // namespace ftoa
