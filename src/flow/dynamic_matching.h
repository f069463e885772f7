// Fully dynamic maximum bipartite matching for incremental per-batch
// matching (the enabling structure behind the TGOA and GR baselines'
// carry-across-batches mode).
//
// Nodes are appended with AddLeft()/AddRight() and edges with AddEdge();
// edges live in a flat append-only arena threaded through per-node
// intrusive lists (iteration in insertion order, which keeps runs
// deterministic). Removing a node deactivates it in place and — when it was
// matched — re-augments from its abandoned partner, which restores
// maximality of the maintained matching (the classic one-path repair).
//
// The matching is maintained incrementally: each arriving object costs one
// augmenting-path search (Kuhn's DFS over live edges) instead of a
// from-scratch Hopcroft-Karp over the whole pool, and all scratch is owned
// by the object, so steady-state operation performs no heap allocations
// beyond arena growth.

#ifndef FTOA_FLOW_DYNAMIC_MATCHING_H_
#define FTOA_FLOW_DYNAMIC_MATCHING_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ftoa {

/// Maximum bipartite matching under node/edge insertion and node removal.
class DynamicBipartiteMatcher {
 public:
  DynamicBipartiteMatcher() = default;

  /// Edge ids are int32: the arena holds at most this many edges.
  static constexpr size_t kMaxEdges =
      static_cast<size_t>(std::numeric_limits<int32_t>::max());

  /// Aborts with a message when an arena already holding `num_edges`
  /// edges has no int32 id left for one more — AddEdge's guard, so ids die
  /// at the boundary instead of wrapping.
  static void CheckEdgeRoom(size_t num_edges);

  /// Rewinds to an empty graph, keeping all arena capacity.
  void Reset();

  /// Pre-sizes the arenas.
  void ReserveNodes(size_t num_left, size_t num_right);
  void ReserveEdges(size_t num_edges);

  /// Appends an active, unmatched node; returns its slot.
  int32_t AddLeft();
  int32_t AddRight();

  /// Adds an edge between active nodes `l` and `r`. Does not re-match; call
  /// TryAugmentLeft/Right (typically from the endpoint that just arrived).
  /// Aborts past kMaxEdges edges (CheckEdgeRoom).
  void AddEdge(int32_t l, int32_t r);

  /// Searches one augmenting path starting at the (active, unmatched) left
  /// node `l`; returns true when the matching grew. A false return means
  /// the maintained matching is already maximum with respect to `l`.
  ///
  /// Consecutive failed searches from the same side share one visit
  /// stamp: a node a failed search visited reaches no free node until the
  /// matching or the graph changes, so later roots skip it and the DFS
  /// still finds the same paths in the same order. A success, an AddEdge,
  /// a removal or a search from the other side starts a new stamp.
  bool TryAugmentLeft(int32_t l);
  /// Mirror image, starting from a right node.
  bool TryAugmentRight(int32_t r);

  /// Deactivates a node. If it was matched, its partner is released and one
  /// repair augmentation is run from the partner, which restores the
  /// maintained matching to maximum cardinality over the remaining actives.
  void RemoveLeft(int32_t l);
  void RemoveRight(int32_t r);

  /// Commits the matched pair (l, r): both nodes are deactivated and the
  /// pair leaves the matching with no repair (the pair departs together).
  /// Requires MatchOfLeft(l) == r.
  void RemovePair(int32_t l, int32_t r);

  /// Right partner of left `l`, or -1.
  int32_t MatchOfLeft(int32_t l) const {
    return match_left_[static_cast<size_t>(l)];
  }
  /// Left partner of right `r`, or -1.
  int32_t MatchOfRight(int32_t r) const {
    return match_right_[static_cast<size_t>(r)];
  }
  bool LeftActive(int32_t l) const {
    return active_left_[static_cast<size_t>(l)] != 0;
  }
  bool RightActive(int32_t r) const {
    return active_right_[static_cast<size_t>(r)] != 0;
  }

  int64_t matching_size() const { return matching_size_; }
  int32_t num_left() const { return static_cast<int32_t>(match_left_.size()); }
  int32_t num_right() const {
    return static_cast<int32_t>(match_right_.size());
  }
  size_t num_edges() const { return edge_right_.size(); }
  /// Augmenting-path searches run so far (instrumentation).
  int64_t augment_searches() const { return augment_searches_; }

 private:
  struct Frame {
    int32_t node;
    int32_t edge;  // Cursor into the node's edge list.
  };

  // Edge arena; per-edge endpoint + next pointer within each endpoint's
  // list. head/tail per node give insertion-order iteration.
  std::vector<int32_t> edge_left_;
  std::vector<int32_t> edge_right_;
  std::vector<int32_t> next_by_left_;
  std::vector<int32_t> next_by_right_;
  std::vector<int32_t> head_left_, tail_left_;
  std::vector<int32_t> head_right_, tail_right_;

  std::vector<int32_t> match_left_;
  std::vector<int32_t> match_right_;
  std::vector<uint8_t> active_left_;
  std::vector<uint8_t> active_right_;

  /// Which side's failed searches the current stamp's visit marks belong
  /// to; kNone once the matching or the graph changed.
  enum class StampOwner : uint8_t { kNone, kLeft, kRight };

  /// Starts a new visit stamp unless the current one holds the marks of
  /// failed searches from `side` on the unchanged matching and graph.
  void BeginSearch(StampOwner side);

  // DFS scratch: visit stamps per node + explicit stack.
  std::vector<int32_t> stamp_left_;
  std::vector<int32_t> stamp_right_;
  int32_t stamp_ = 0;
  StampOwner stamp_owner_ = StampOwner::kNone;
  std::vector<Frame> frames_;

  int64_t matching_size_ = 0;
  int64_t augment_searches_ = 0;
};

}  // namespace ftoa

#endif  // FTOA_FLOW_DYNAMIC_MATCHING_H_
