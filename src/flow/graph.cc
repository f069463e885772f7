#include "flow/graph.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>

namespace ftoa {

FlowGraph::FlowGraph(NodeId num_nodes)
    : start_(static_cast<size_t>(num_nodes) + 1, 0) {}

void FlowGraph::Reset(NodeId num_nodes) {
  start_.assign(static_cast<size_t>(num_nodes) + 1, 0);
  edges_.clear();
  built_ = 0;
}

EdgeId FlowGraph::AddEdge(NodeId u, NodeId v, int64_t cap) {
  assert(u >= 0 && u < num_nodes());
  assert(v >= 0 && v < num_nodes());
  assert(cap >= 0);
  // Arc ids, CSR offsets and capacities are int32: die at the boundary,
  // never wrap.
  const size_t arcs = 2 * edges_.size();
  if (arcs >= size_t{std::numeric_limits<EdgeId>::max()} - 1) {
    std::fprintf(stderr, "FlowGraph: %zu arcs exceed int32 arc ids\n",
                 arcs + 2);
    std::abort();
  }
  if (cap > std::numeric_limits<int32_t>::max()) {
    std::fprintf(stderr, "FlowGraph: capacity %lld exceeds int32\n",
                 static_cast<long long>(cap));
    std::abort();
  }
  edges_.push_back(Edge{u, v, static_cast<int32_t>(cap), 0});
  return static_cast<EdgeId>(arcs);
}

void FlowGraph::ReserveEdges(size_t num_edges) {
  edges_.reserve(num_edges);
  arcs_.reserve(num_edges * 2);
  partner_.reserve(num_edges * 2);
  pos_.reserve(num_edges * 2);
}

void FlowGraph::BuildAdjacency() {
  const size_t n = 2 * edges_.size();
  // The CSR is current iff it covers every arc (an empty graph's does).
  if (built_ == n) return;
  // Edges added after a solve: carry the solved residuals over.
  for (size_t k = 0; k < built_ / 2; ++k) {
    edges_[k].cap = arcs_[static_cast<size_t>(pos_[2 * k])].cap;
    edges_[k].back_cap = arcs_[static_cast<size_t>(pos_[2 * k + 1])].cap;
  }
  // Counting sort by tail node (an edge's forward arc leaves `from`, its
  // residual leaves `to`). Filling each block from its end while the arcs
  // are walked in insertion order lists it newest first.
  std::fill(start_.begin(), start_.end(), 0);
  for (const Edge& edge : edges_) {
    ++start_[static_cast<size_t>(edge.from)];
    ++start_[static_cast<size_t>(edge.to)];
  }
  std::partial_sum(start_.begin(), start_.end(), start_.begin());
  // The arenas only grow, so a rebuilt graph does not clear them first.
  if (arcs_.size() < n) {
    arcs_.resize(n);
    partner_.resize(n);
    pos_.resize(n);
  }
  for (size_t e = 0; e < n; e += 2) {
    const Edge& edge = edges_[e / 2];
    pos_[e] = --start_[static_cast<size_t>(edge.from)];
    pos_[e + 1] = --start_[static_cast<size_t>(edge.to)];
  }
  // Scatter the arcs to their positions. The residual arcs land in
  // scattered blocks, so fetch the lines a few edges ahead.
  constexpr size_t kPrefetchArcs = 16;
  Arc* arcs = arcs_.data();
  EdgeId* partner = partner_.data();
  for (size_t e = 0; e < n; e += 2) {
    const Edge& edge = edges_[e / 2];
    const EdgeId forward = pos_[e];
    const EdgeId backward = pos_[e + 1];
    if (e + kPrefetchArcs + 1 < n) {
      __builtin_prefetch(arcs + pos_[e + kPrefetchArcs + 1], 1);
    }
    arcs[forward] = Arc{edge.to, edge.cap};
    arcs[backward] = Arc{edge.from, edge.back_cap};
    partner[forward] = backward;
    partner[backward] = forward;
  }
  built_ = n;
}

}  // namespace ftoa
