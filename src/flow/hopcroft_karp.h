// Hopcroft-Karp maximum-cardinality bipartite matching, O(E * sqrt(V)).
// Used by offline OPT (src/baselines/offline_opt, the paper's OPT curve)
// and by two test oracles, the per-window rebuilds of GR and TGOA
// (tests/oracles/rebuild_gr_batch, tests/oracles/rebuild_tgoa). The online
// algorithms themselves match through DynamicBipartiteMatcher.
//
// Reusable: `Reset()` rewinds the instance while keeping every buffer
// allocation. Solve() is idempotent: it keeps the matching it found and
// augments only from nodes still exposed, so a repeated call returns the
// same cardinality, and edges added after a Solve extend that matching.

#ifndef FTOA_FLOW_HOPCROFT_KARP_H_
#define FTOA_FLOW_HOPCROFT_KARP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ftoa {

/// Maximum matching over an explicit bipartite adjacency structure.
class HopcroftKarp {
 public:
  /// Creates an empty graph with `num_left` left and `num_right` right nodes.
  HopcroftKarp(int32_t num_left = 0, int32_t num_right = 0);

  /// Rewinds to an empty graph with the given sides, keeping all buffer
  /// capacity from previous instances (zero allocations once warmed up).
  void Reset(int32_t num_left, int32_t num_right);

  /// Adds an edge between left node `u` and right node `v` (0-based).
  void AddEdge(int32_t u, int32_t v);

  /// Reserve space for `num_edges` edges.
  void ReserveEdges(size_t num_edges);

  /// Computes a maximum matching; returns its cardinality. Idempotent: the
  /// matching of a prior Solve is kept and only exposed nodes are augmented
  /// from.
  int64_t Solve();

  /// Right partner of left node `u` after Solve(), or -1.
  int32_t MatchOfLeft(int32_t u) const {
    return match_left_[static_cast<size_t>(u)];
  }
  /// Left partner of right node `v` after Solve(), or -1.
  int32_t MatchOfRight(int32_t v) const {
    return match_right_[static_cast<size_t>(v)];
  }

  size_t num_edges() const { return edge_to_.size(); }

 private:
  bool Bfs();
  bool Dfs(int32_t u);

  int32_t num_left_ = 0;
  int32_t num_right_ = 0;
  // CSR-ish adjacency built lazily at Solve() time from the edge list.
  std::vector<int32_t> edge_from_;
  std::vector<int32_t> edge_to_;
  std::vector<int32_t> adj_start_;
  std::vector<int32_t> adj_;
  bool adjacency_built_ = false;

  std::vector<int32_t> match_left_;
  std::vector<int32_t> match_right_;
  std::vector<int32_t> dist_;
  std::vector<int32_t> queue_;
  std::vector<int32_t> iter_;
  std::vector<int32_t> stack_;
};

}  // namespace ftoa

#endif  // FTOA_FLOW_HOPCROFT_KARP_H_
