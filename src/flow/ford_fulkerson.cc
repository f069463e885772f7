#include "flow/ford_fulkerson.h"

#include <algorithm>
#include <vector>

namespace ftoa {

namespace {

// Iterative DFS looking for one augmenting path; returns the bottleneck
// (0 when no path exists) and augments along the path.
int64_t Augment(FlowGraph& g, NodeId source, NodeId sink,
                std::vector<int32_t>& visit_mark, int32_t epoch,
                std::vector<EdgeId>& path_arcs,
                std::vector<EdgeId>& dfs_stack,
                std::vector<NodeId>& node_stack) {
  // dfs_stack holds the block cursor per depth; path_arcs the chosen arc
  // positions.
  const EdgeId* start = g.start().data();
  FlowGraph::Arc* arcs = g.arcs().data();
  const EdgeId* partner = g.partner().data();
  path_arcs.clear();
  dfs_stack.clear();
  node_stack.clear();
  node_stack.push_back(source);
  dfs_stack.push_back(start[source]);
  visit_mark[static_cast<size_t>(source)] = epoch;

  while (!node_stack.empty()) {
    EdgeId& it = dfs_stack.back();
    const EdgeId end = start[node_stack.back() + 1];
    bool advanced = false;
    while (it < end) {
      const EdgeId p = it++;
      const NodeId v = arcs[p].to;
      if (arcs[p].cap <= 0) continue;
      if (visit_mark[static_cast<size_t>(v)] == epoch) continue;
      visit_mark[static_cast<size_t>(v)] = epoch;
      path_arcs.push_back(p);
      if (v == sink) {
        // Compute bottleneck and augment.
        int32_t bottleneck = arcs[path_arcs[0]].cap;
        for (const EdgeId pe : path_arcs) {
          bottleneck = std::min(bottleneck, arcs[pe].cap);
        }
        for (const EdgeId pe : path_arcs) {
          arcs[pe].cap -= bottleneck;
          arcs[partner[pe]].cap += bottleneck;
        }
        return bottleneck;
      }
      node_stack.push_back(v);
      dfs_stack.push_back(start[v]);
      advanced = true;
      break;
    }
    if (!advanced) {
      node_stack.pop_back();
      dfs_stack.pop_back();
      if (!path_arcs.empty()) path_arcs.pop_back();
    }
  }
  return 0;
}

}  // namespace

int64_t FordFulkersonMaxFlow(FlowGraph* graph, NodeId source, NodeId sink) {
  FlowGraph& g = *graph;
  g.BuildAdjacency();
  std::vector<int32_t> visit_mark(static_cast<size_t>(g.num_nodes()), 0);
  std::vector<EdgeId> path_arcs;
  std::vector<EdgeId> dfs_stack;
  std::vector<NodeId> node_stack;
  int64_t total = 0;
  int32_t epoch = 0;
  while (true) {
    ++epoch;
    const int64_t pushed = Augment(g, source, sink, visit_mark, epoch,
                                   path_arcs, dfs_stack, node_stack);
    if (pushed == 0) break;
    total += pushed;
  }
  return total;
}

}  // namespace ftoa
