// Residual flow network shared by the max-flow algorithms (Ford-Fulkerson,
// Dinic). AddEdge records edges in insertion order and hands out handles,
// residual partner at (e ^ 1). BuildAdjacency lays the arcs out in CSR
// order, one contiguous block per tail node listed newest first, the order
// that keeps flows bit-identical; a position map keeps the handles valid
// (docs/flow_engines.md, "Max-flow graph layout").

#ifndef FTOA_FLOW_GRAPH_H_
#define FTOA_FLOW_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ftoa {

/// Node index within a FlowGraph.
using NodeId = int32_t;
/// Edge handle within a FlowGraph, in AddEdge order; the residual partner's
/// handle is (edge ^ 1). Also used for arc positions in the CSR layout.
using EdgeId = int32_t;

/// A directed flow network with integer capacities.
class FlowGraph {
 public:
  /// One residual arc at its CSR position: head and remaining capacity.
  /// The scans read only these 8 bytes; partner() holds the rest.
  struct Arc {
    NodeId to;
    int32_t cap;
  };

  /// Creates a graph with `num_nodes` nodes and no edges.
  explicit FlowGraph(NodeId num_nodes = 0);

  /// Rewinds to an empty graph with `num_nodes` nodes, keeping the edge and
  /// arc arenas' allocations so a long-lived graph can be rebuilt without
  /// touching the heap.
  void Reset(NodeId num_nodes);

  /// Adds edge u -> v with capacity `cap` (and the residual v -> u with 0).
  /// Returns the handle of the forward edge. Capacities must be
  /// non-negative. Aborts when `cap` exceeds int32 (a guide's capacities
  /// are per-type counts) or the arc count would overflow int32 arc ids.
  EdgeId AddEdge(NodeId u, NodeId v, int64_t cap);

  /// Optionally reserve space for `num_edges` forward edges up front.
  void ReserveEdges(size_t num_edges);

  /// Lays the arcs out in CSR order if an edge was added since; the solvers
  /// call it first. Residuals a solve left on earlier edges carry over.
  void BuildAdjacency();

  NodeId num_nodes() const { return static_cast<NodeId>(start_.size() - 1); }
  size_t num_edges() const { return edges_.size(); }

  /// Flow currently carried by forward edge `e` (its residual partner's
  /// capacity). An augmentation moves units between an arc and its
  /// partner, so the pair keeps the capacity sum it was laid out with; a
  /// laid-out edge reads its own arc, which sits in its tail's block beside
  /// the arcs of the edges added next to it.
  int64_t Flow(EdgeId e) const {
    const auto h = static_cast<size_t>(e);
    if (h >= built_) return Capacity(e ^ 1);
    const Edge& edge = edges_[h / 2];
    return int64_t{edge.cap} + edge.back_cap -
           arcs_[static_cast<size_t>(pos_[h])].cap;
  }

  /// Remaining capacity of edge `e`.
  int64_t Capacity(EdgeId e) const {
    const auto h = static_cast<size_t>(e);
    if (h < built_) return arcs_[static_cast<size_t>(pos_[h])].cap;
    const Edge& edge = edges_[h / 2];
    return h % 2 == 0 ? edge.cap : edge.back_cap;
  }

  /// Head (target node) of edge `e`.
  NodeId To(EdgeId e) const {
    const Edge& edge = edges_[static_cast<size_t>(e) / 2];
    return e % 2 == 0 ? edge.to : edge.from;
  }

  // The CSR, for the algorithms in this module; valid only after
  // BuildAdjacency. Node u's arcs are arcs()[start()[u] .. start()[u + 1]);
  // partner()[p] is the position of arc p's residual partner. Both may run
  // on past the last block.
  const std::vector<EdgeId>& start() const { return start_; }
  std::vector<Arc>& arcs() { return arcs_; }
  const std::vector<Arc>& arcs() const { return arcs_; }
  const std::vector<EdgeId>& partner() const { return partner_; }

 private:
  /// One AddEdge call: both arcs' endpoints and capacities. A rebuild
  /// first copies the residuals of the arcs already laid out back here.
  struct Edge {
    NodeId from;
    NodeId to;
    int32_t cap;
    int32_t back_cap;
  };

  std::vector<Edge> edges_;    // Every edge, in AddEdge order.
  std::vector<EdgeId> start_;  // CSR offsets, num_nodes + 1 entries.
  std::vector<Arc> arcs_;      // The arcs of the first built_ handles.
  std::vector<EdgeId> partner_;  // Per arc position: its partner's.
  std::vector<EdgeId> pos_;    // Edge handle -> position in arcs_.
  size_t built_ = 0;           // Arcs the CSR covers.
};

}  // namespace ftoa

#endif  // FTOA_FLOW_GRAPH_H_
