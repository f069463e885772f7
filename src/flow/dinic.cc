#include "flow/dinic.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace ftoa {

bool DinicSolver::Bfs(const FlowGraph& g, NodeId source, NodeId sink) {
  std::fill(level_.begin(), level_.end(), -1);
  queue_.clear();
  queue_.push_back(source);
  level_[static_cast<size_t>(source)] = 0;
  for (size_t qi = 0; qi < queue_.size(); ++qi) {
    const NodeId u = queue_[qi];
    const int32_t u_level = level_[static_cast<size_t>(u)];
    const int32_t sink_level = level_[static_cast<size_t>(sink)];
    // From the sink's level on, no node lies on a level-increasing path.
    if (sink_level >= 0 && u_level >= sink_level) break;
    for (EdgeId i = g.start()[static_cast<size_t>(u)];
         i < g.start()[static_cast<size_t>(u) + 1]; ++i) {
      const EdgeId e = g.adj()[static_cast<size_t>(i)];
      const NodeId v = g.To(e);
      if (g.Capacity(e) > 0 && level_[static_cast<size_t>(v)] < 0) {
        level_[static_cast<size_t>(v)] = u_level + 1;
        queue_.push_back(v);
      }
    }
  }
  return level_[static_cast<size_t>(sink)] >= 0;
}

// Iterative blocking-flow DFS along level-increasing edges.
int64_t DinicSolver::BlockingPath(FlowGraph& g, NodeId source, NodeId sink,
                                  int64_t limit) {
  if (source == sink) return limit;
  stack_.clear();
  stack_.push_back(Frame{source, limit, -1});
  while (!stack_.empty()) {
    Frame& frame = stack_.back();
    const NodeId u = frame.node;
    EdgeId& it = iter_[static_cast<size_t>(u)];
    const EdgeId end = g.start()[static_cast<size_t>(u) + 1];
    bool advanced = false;
    while (it < end) {
      const EdgeId e = g.adj()[static_cast<size_t>(it)];
      const NodeId v = g.To(e);
      if (g.Capacity(e) > 0 &&
          level_[static_cast<size_t>(v)] ==
              level_[static_cast<size_t>(u)] + 1) {
        const int64_t next_limit = std::min(frame.limit, g.Capacity(e));
        if (v == sink) {
          // Augment the whole path stored on the stack plus edge e.
          g.cap()[static_cast<size_t>(e)] -= next_limit;
          g.cap()[static_cast<size_t>(e ^ 1)] += next_limit;
          for (size_t i = stack_.size(); i-- > 1;) {
            const EdgeId pe = stack_[i].via;
            g.cap()[static_cast<size_t>(pe)] -= next_limit;
            g.cap()[static_cast<size_t>(pe ^ 1)] += next_limit;
          }
          return next_limit;
        }
        stack_.push_back(Frame{v, next_limit, e});
        advanced = true;
        break;
      }
      ++it;
    }
    if (!advanced) {
      // Dead end: remove u from the level graph and backtrack.
      level_[static_cast<size_t>(u)] = -1;
      stack_.pop_back();
      if (!stack_.empty()) {
        ++iter_[static_cast<size_t>(stack_.back().node)];
      }
    }
  }
  return 0;
}

int64_t DinicSolver::Solve(FlowGraph* graph, NodeId source, NodeId sink) {
  FlowGraph& g = *graph;
  g.BuildAdjacency();
  const size_t n = static_cast<size_t>(g.num_nodes());
  if (level_.size() < n) {
    level_.resize(n);
    iter_.resize(n);
  }
  int64_t total = 0;
  while (Bfs(g, source, sink)) {
    std::copy(g.start().begin(), g.start().end() - 1, iter_.begin());
    while (true) {
      const int64_t pushed =
          BlockingPath(g, source, sink, std::numeric_limits<int64_t>::max());
      if (pushed == 0) break;
      total += pushed;
    }
  }
  return total;
}

int64_t DinicMaxFlow(FlowGraph* graph, NodeId source, NodeId sink) {
  DinicSolver solver;
  return solver.Solve(graph, source, sink);
}

std::vector<bool> ResidualReachable(const FlowGraph& graph, NodeId source) {
  std::vector<bool> reachable(static_cast<size_t>(graph.num_nodes()), false);
  std::vector<NodeId> queue;
  queue.push_back(source);
  reachable[static_cast<size_t>(source)] = true;
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    const NodeId u = queue[qi];
    for (EdgeId i = graph.start()[static_cast<size_t>(u)];
         i < graph.start()[static_cast<size_t>(u) + 1]; ++i) {
      const EdgeId e = graph.adj()[static_cast<size_t>(i)];
      const NodeId v = graph.To(e);
      if (graph.Capacity(e) > 0 && !reachable[static_cast<size_t>(v)]) {
        reachable[static_cast<size_t>(v)] = true;
        queue.push_back(v);
      }
    }
  }
  return reachable;
}

}  // namespace ftoa
