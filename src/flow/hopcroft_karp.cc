#include "flow/hopcroft_karp.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace ftoa {

namespace {
constexpr int32_t kInf = std::numeric_limits<int32_t>::max();
// The CSR offsets (adj_start_, and iter_'s write cursors) are int32, so the
// edge count must stay below int32 range — at city scale a node-level
// network can genuinely approach this, and a silent wrap here is the PR 7
// stride-truncation bug class. Checked unconditionally in AddEdge.
constexpr size_t kMaxEdges =
    static_cast<size_t>(std::numeric_limits<int32_t>::max());
}  // namespace

HopcroftKarp::HopcroftKarp(int32_t num_left, int32_t num_right) {
  Reset(num_left, num_right);
}

void HopcroftKarp::Reset(int32_t num_left, int32_t num_right) {
  if (num_left < 0 || num_right < 0) {
    std::fprintf(stderr,
                 "HopcroftKarp: negative side size (%d, %d) — a wider count "
                 "narrowed into int32?\n",
                 num_left, num_right);
    std::abort();
  }
  num_left_ = num_left;
  num_right_ = num_right;
  edge_from_.clear();
  edge_to_.clear();
  adjacency_built_ = false;
  match_left_.assign(static_cast<size_t>(num_left), -1);
  match_right_.assign(static_cast<size_t>(num_right), -1);
  dist_.assign(static_cast<size_t>(num_left), 0);
  iter_.assign(static_cast<size_t>(num_left), 0);
}

void HopcroftKarp::AddEdge(int32_t u, int32_t v) {
  // Unconditional bounds checks: matcher callers size their graphs from
  // int64 counts (MinCostFlowGraph and the node-level guide networks are
  // int64 throughout), so an id or edge count that narrowed on the way in
  // must die here, not index out of bounds or wrap a CSR offset later.
  if (u < 0 || u >= num_left_ || v < 0 || v >= num_right_) {
    std::fprintf(stderr,
                 "HopcroftKarp: edge (%d, %d) out of range [0, %d) x [0, %d)\n",
                 u, v, num_left_, num_right_);
    std::abort();
  }
  if (edge_to_.size() >= kMaxEdges) {
    std::fprintf(stderr,
                 "HopcroftKarp: edge count would exceed int32 range (%zu)\n",
                 edge_to_.size());
    std::abort();
  }
  edge_from_.push_back(u);
  edge_to_.push_back(v);
  adjacency_built_ = false;
}

void HopcroftKarp::ReserveEdges(size_t num_edges) {
  edge_from_.reserve(num_edges);
  edge_to_.reserve(num_edges);
}

bool HopcroftKarp::Bfs() {
  queue_.clear();
  for (int32_t u = 0; u < num_left_; ++u) {
    if (match_left_[static_cast<size_t>(u)] < 0) {
      dist_[static_cast<size_t>(u)] = 0;
      queue_.push_back(u);
    } else {
      dist_[static_cast<size_t>(u)] = kInf;
    }
  }
  bool found_augmenting_layer = false;
  for (size_t qi = 0; qi < queue_.size(); ++qi) {
    const int32_t u = queue_[qi];
    const int32_t begin = adj_start_[static_cast<size_t>(u)];
    const int32_t end = adj_start_[static_cast<size_t>(u) + 1];
    for (int32_t k = begin; k < end; ++k) {
      const int32_t v = adj_[static_cast<size_t>(k)];
      const int32_t w = match_right_[static_cast<size_t>(v)];
      if (w < 0) {
        found_augmenting_layer = true;
      } else if (dist_[static_cast<size_t>(w)] == kInf) {
        dist_[static_cast<size_t>(w)] = dist_[static_cast<size_t>(u)] + 1;
        queue_.push_back(w);
      }
    }
  }
  return found_augmenting_layer;
}

bool HopcroftKarp::Dfs(int32_t root) {
  // Iterative DFS with per-node edge cursors (iter_).
  stack_.clear();
  stack_.push_back(root);
  while (!stack_.empty()) {
    const int32_t u = stack_.back();
    int32_t& k = iter_[static_cast<size_t>(u)];
    const int32_t end = adj_start_[static_cast<size_t>(u) + 1];
    bool advanced = false;
    while (k < end) {
      const int32_t v = adj_[static_cast<size_t>(k)];
      ++k;
      const int32_t w = match_right_[static_cast<size_t>(v)];
      if (w < 0) {
        // Augment along the stack: re-pair every node on the path.
        int32_t right = v;
        for (size_t i = stack_.size(); i-- > 0;) {
          const int32_t left = stack_[i];
          const int32_t prev_right = match_left_[static_cast<size_t>(left)];
          match_left_[static_cast<size_t>(left)] = right;
          match_right_[static_cast<size_t>(right)] = left;
          right = prev_right;
        }
        return true;
      }
      if (dist_[static_cast<size_t>(w)] == dist_[static_cast<size_t>(u)] + 1) {
        stack_.push_back(w);
        advanced = true;
        break;
      }
    }
    if (!advanced) {
      dist_[static_cast<size_t>(u)] = kInf;  // Prune from this phase.
      stack_.pop_back();
    }
  }
  return false;
}

int64_t HopcroftKarp::Solve() {
  if (!adjacency_built_) {
    adj_start_.assign(static_cast<size_t>(num_left_) + 1, 0);
    for (int32_t u : edge_from_) {
      ++adj_start_[static_cast<size_t>(u) + 1];
    }
    for (size_t i = 1; i < adj_start_.size(); ++i) {
      adj_start_[i] += adj_start_[i - 1];
    }
    adj_.assign(edge_to_.size(), 0);
    // Reuse iter_ as the per-left write cursor during the counting sort.
    std::copy(adj_start_.begin(), adj_start_.end() - 1, iter_.begin());
    for (size_t e = 0; e < edge_from_.size(); ++e) {
      adj_[static_cast<size_t>(
          iter_[static_cast<size_t>(edge_from_[e])]++)] = edge_to_[e];
    }
    adjacency_built_ = true;
  }

  int64_t matching = 0;
  for (int32_t u = 0; u < num_left_; ++u) {
    if (match_left_[static_cast<size_t>(u)] >= 0) ++matching;
  }
  while (Bfs()) {
    std::copy(adj_start_.begin(), adj_start_.end() - 1, iter_.begin());
    for (int32_t u = 0; u < num_left_; ++u) {
      if (match_left_[static_cast<size_t>(u)] < 0 && Dfs(u)) {
        ++matching;
      }
    }
  }
  return matching;
}

}  // namespace ftoa
