// Dinic's max-flow algorithm (BFS level graph + blocking flow). On unit-
// capacity bipartite networks it runs in O(E * sqrt(V)), which makes it the
// default engine for offline guide generation and offline OPT ("any other
// max-flow algorithm is applicable", paper Section 4 note (1)).
//
// `DinicSolver` owns its scratch arrays (levels, edge cursors, BFS queue,
// DFS stack) and reuses them across calls, so a long-lived solver performs
// zero heap allocations per Solve once warmed up. The `DinicMaxFlow` free
// function remains as a one-shot convenience wrapper.
// Both phases scan FlowGraph's arc blocks front to back (a current-arc
// cursor is an arc position), and the BFS stops at the sink's level, which
// leaves every per-edge flow unchanged (docs/flow_engines.md, "Max-flow
// graph layout"). Each BFS resets the levels of the solved graph's nodes
// only, so one solver reused on a small graph after a large one pays for
// the small one. From the second phase on, the level graph is pruned to
// the nodes that reach the sink along it before the DFS runs, which skips
// only DFS branches that would dead-end and so finds the same paths.

#ifndef FTOA_FLOW_DINIC_H_
#define FTOA_FLOW_DINIC_H_

#include <cstdint>
#include <vector>

#include "flow/graph.h"

namespace ftoa {

/// Reusable Dinic solver; scratch buffers persist across Solve calls.
/// Not thread-safe.
class DinicSolver {
 public:
  DinicSolver() = default;

  /// Computes the maximum s-t flow; the graph retains the resulting
  /// residual capacities. May be called repeatedly, on different graphs.
  int64_t Solve(FlowGraph* graph, NodeId source, NodeId sink);

 private:
  bool Bfs(const FlowGraph& g, NodeId source, NodeId sink);
  void PruneToSink(const FlowGraph& g, NodeId sink);
  int64_t BlockingPath(FlowGraph& g, NodeId source, NodeId sink,
                       int64_t limit);

  struct Frame {
    NodeId node;
    int64_t limit;
    EdgeId via;  // Arc position taken from the parent, -1 at the root.
  };
  std::vector<int32_t> level_;
  std::vector<EdgeId> iter_;
  std::vector<NodeId> queue_;
  std::vector<Frame> stack_;
  std::vector<NodeId> back_queue_;     // PruneToSink's walk.
  std::vector<uint8_t> reaches_sink_;  // PruneToSink marks; 0 between.
};

/// One-shot convenience wrapper around DinicSolver.
int64_t DinicMaxFlow(FlowGraph* graph, NodeId source, NodeId sink);

/// Computes the minimum s-t cut reachability after a max flow: returns a
/// boolean vector marking the nodes reachable from `source` in the residual
/// network. This is the "canonical reachability" cut used in the proof of
/// Lemma 2 and by tests validating max-flow = min-cut. The graph's CSR
/// must be current: call it after a solve or FlowGraph::BuildAdjacency.
std::vector<bool> ResidualReachable(const FlowGraph& graph, NodeId source);

}  // namespace ftoa

#endif  // FTOA_FLOW_DINIC_H_
