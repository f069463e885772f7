// Reference max flow: the Dinic and Ford-Fulkerson solvers as flow/ shipped
// them on a head/next linked-list adjacency, before FlowGraph moved to CSR
// blocks. Each node's arcs are a singly linked list threaded through the
// arc arena, newest first; Dinic runs a full BFS per phase. It owns its
// edge list, and edge ids follow the same insertion order as FlowGraph's
// (forward arc at an even id, residual partner at id ^ 1), so a test can
// build both from one edge sequence and compare every edge's flow, not
// just the flow value.

#ifndef FTOA_TESTS_ORACLES_LINKED_LIST_MAX_FLOW_H_
#define FTOA_TESTS_ORACLES_LINKED_LIST_MAX_FLOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ftoa {
namespace testing {

class LinkedListMaxFlow {
 public:
  explicit LinkedListMaxFlow(int32_t num_nodes)
      : head_(static_cast<size_t>(num_nodes), -1) {}

  /// Adds edge u -> v with capacity `cap` >= 0; returns its forward id.
  int32_t AddEdge(int32_t u, int32_t v, int64_t cap);

  /// Maximum s-t flow by Dinic's algorithm; call once per instance.
  int64_t Dinic(int32_t s, int32_t t);

  /// Maximum s-t flow by DFS augmenting paths; call once per instance.
  int64_t FordFulkerson(int32_t s, int32_t t);

  /// Flow carried by forward edge `e`.
  int64_t Flow(int32_t e) const { return cap_[static_cast<size_t>(e ^ 1)]; }

  /// Remaining capacity of edge `e`.
  int64_t Capacity(int32_t e) const { return cap_[static_cast<size_t>(e)]; }

  /// Head of edge `e`.
  int32_t To(int32_t e) const { return to_[static_cast<size_t>(e)]; }

 private:
  /// One Dinic blocking-flow path, or 0 when the level graph is blocked.
  int64_t DinicPath(int32_t s, int32_t t, std::vector<int32_t>& level,
                    std::vector<int32_t>& iter);
  /// One Ford-Fulkerson augmenting path, or 0 when none exists.
  int64_t AugmentingPath(int32_t s, int32_t t, std::vector<int32_t>& mark,
                         int32_t epoch);

  std::vector<int32_t> head_;
  std::vector<int32_t> next_;
  std::vector<int32_t> to_;
  std::vector<int64_t> cap_;
};

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_ORACLES_LINKED_LIST_MAX_FLOW_H_
