// Residual flow network shared by the max-flow algorithms (Ford-Fulkerson,
// Dinic): a flat arc arena in insertion order, residual partner at (e ^ 1),
// with a CSR adjacency whose per-node blocks list arcs newest first, the
// order that keeps flows bit-identical (docs/flow_engines.md, "Max-flow
// graph layout").

#ifndef FTOA_FLOW_GRAPH_H_
#define FTOA_FLOW_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ftoa {

/// Node index within a FlowGraph.
using NodeId = int32_t;
/// Edge index within a FlowGraph; the residual partner is (edge ^ 1).
using EdgeId = int32_t;

/// A directed flow network with integer capacities.
class FlowGraph {
 public:
  /// Creates a graph with `num_nodes` nodes and no edges.
  explicit FlowGraph(NodeId num_nodes = 0);

  /// Rewinds to an empty graph with `num_nodes` nodes, keeping the edge
  /// arena's allocation so a long-lived graph can be rebuilt without
  /// touching the heap.
  void Reset(NodeId num_nodes);

  /// Adds edge u -> v with capacity `cap` (and the residual v -> u with 0).
  /// Returns the id of the forward edge. Capacities must be non-negative.
  /// Aborts when the arc count would overflow int32 arc ids.
  EdgeId AddEdge(NodeId u, NodeId v, int64_t cap);

  /// Optionally reserve space for `num_edges` forward edges up front.
  void ReserveEdges(size_t num_edges);

  /// Builds the CSR if an edge was added since; the solvers call it first.
  void BuildAdjacency();

  NodeId num_nodes() const { return static_cast<NodeId>(start_.size() - 1); }
  size_t num_edges() const { return to_.size() / 2; }

  /// Flow currently carried by forward edge `e` (its residual partner's
  /// capacity).
  int64_t Flow(EdgeId e) const { return cap_[static_cast<size_t>(e ^ 1)]; }

  /// Remaining capacity of edge `e`.
  int64_t Capacity(EdgeId e) const { return cap_[static_cast<size_t>(e)]; }

  /// Head (target node) of edge `e`.
  NodeId To(EdgeId e) const { return to_[static_cast<size_t>(e)]; }

  // Internal arrays exposed to the algorithms in this module. start() and
  // adj() are the CSR and are valid only after BuildAdjacency.
  const std::vector<EdgeId>& start() const { return start_; }
  const std::vector<EdgeId>& adj() const { return adj_; }
  std::vector<int64_t>& cap() { return cap_; }
  const std::vector<int64_t>& cap() const { return cap_; }
  const std::vector<NodeId>& to() const { return to_; }

 private:
  std::vector<EdgeId> start_;  // CSR offsets, num_nodes + 1 entries.
  std::vector<EdgeId> adj_;    // Arc ids grouped by tail node.
  std::vector<NodeId> to_;     // Edge targets.
  std::vector<int64_t> cap_;   // Residual capacities.
};

}  // namespace ftoa

#endif  // FTOA_FLOW_GRAPH_H_
