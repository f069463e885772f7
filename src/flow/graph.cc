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
  adj_.clear();
  to_.clear();
  cap_.clear();
}

EdgeId FlowGraph::AddEdge(NodeId u, NodeId v, int64_t cap) {
  assert(u >= 0 && u < num_nodes());
  assert(v >= 0 && v < num_nodes());
  assert(cap >= 0);
  // Arc ids and CSR offsets are int32: die at the boundary, never wrap.
  if (to_.size() >= size_t{std::numeric_limits<EdgeId>::max()} - 1) {
    std::fprintf(stderr, "FlowGraph: %zu arcs exceed int32 arc ids\n",
                 to_.size() + 2);
    std::abort();
  }
  const EdgeId forward = static_cast<EdgeId>(to_.size());
  to_.push_back(v);
  cap_.push_back(cap);
  to_.push_back(u);
  cap_.push_back(0);
  return forward;
}

void FlowGraph::ReserveEdges(size_t num_edges) {
  to_.reserve(num_edges * 2);
  cap_.reserve(num_edges * 2);
  adj_.reserve(num_edges * 2);
}

void FlowGraph::BuildAdjacency() {
  // The CSR is current iff it holds every arc (an empty graph's is).
  if (adj_.size() == to_.size()) return;
  // Counting sort by tail node. Filling each block from its end while the
  // arcs are walked in insertion order lists it newest first.
  const auto tail = [this](size_t e) {
    return static_cast<size_t>(to_[e ^ 1]);
  };
  std::fill(start_.begin(), start_.end(), 0);
  for (size_t e = 0; e < to_.size(); ++e) ++start_[tail(e)];
  std::partial_sum(start_.begin(), start_.end(), start_.begin());
  adj_.resize(to_.size());
  for (size_t e = 0; e < to_.size(); ++e) {
    adj_[static_cast<size_t>(--start_[tail(e)])] = static_cast<EdgeId>(e);
  }
}

}  // namespace ftoa
