#include "flow/dinic.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace ftoa {

bool DinicSolver::Bfs(const FlowGraph& g, NodeId source, NodeId sink) {
  // Reset only this graph's nodes: level_ is sized for the largest graph
  // this solver has seen.
  std::fill(level_.begin(), level_.begin() + g.num_nodes(), -1);
  const EdgeId* start = g.start().data();
  const FlowGraph::Arc* arcs = g.arcs().data();
  queue_.clear();
  queue_.push_back(source);
  level_[static_cast<size_t>(source)] = 0;
  for (size_t qi = 0; qi < queue_.size(); ++qi) {
    const NodeId u = queue_[qi];
    const int32_t u_level = level_[static_cast<size_t>(u)];
    const int32_t sink_level = level_[static_cast<size_t>(sink)];
    // From the sink's level on, no node lies on a level-increasing path.
    if (sink_level >= 0 && u_level >= sink_level) break;
    for (EdgeId p = start[u]; p < start[u + 1]; ++p) {
      const FlowGraph::Arc& arc = arcs[p];
      if (arc.cap > 0 && level_[static_cast<size_t>(arc.to)] < 0) {
        level_[static_cast<size_t>(arc.to)] = u_level + 1;
        queue_.push_back(arc.to);
      }
    }
  }
  return level_[static_cast<size_t>(sink)] >= 0;
}

// Keeps in the level graph only the nodes that reach the sink along it: a
// walk back from the sink over residual arcs whose tail lies one level
// lower marks them, and every other node the BFS queued loses its level.
// The DFS would dead-end in exactly those nodes, since a phase's
// augmentations only remove level-increasing arcs.
void DinicSolver::PruneToSink(const FlowGraph& g, NodeId sink) {
  const EdgeId* start = g.start().data();
  const FlowGraph::Arc* arcs = g.arcs().data();
  const EdgeId* partner = g.partner().data();
  if (reaches_sink_.size() < level_.size()) {
    reaches_sink_.resize(level_.size(), 0);
  }
  back_queue_.clear();
  back_queue_.push_back(sink);
  reaches_sink_[static_cast<size_t>(sink)] = 1;
  for (size_t qi = 0; qi < back_queue_.size(); ++qi) {
    const NodeId v = back_queue_[qi];
    const int32_t below = level_[static_cast<size_t>(v)] - 1;
    if (below < 0) continue;  // The source: nothing lies below it.
    for (EdgeId p = start[v]; p < start[v + 1]; ++p) {
      const NodeId u = arcs[p].to;
      // Arc p runs v -> u; its partner is the arc u -> v.
      if (level_[static_cast<size_t>(u)] == below &&
          !reaches_sink_[static_cast<size_t>(u)] &&
          arcs[partner[p]].cap > 0) {
        reaches_sink_[static_cast<size_t>(u)] = 1;
        back_queue_.push_back(u);
      }
    }
  }
  // Every marked node was queued by the BFS, so this also clears the marks.
  for (const NodeId u : queue_) {
    if (reaches_sink_[static_cast<size_t>(u)]) {
      reaches_sink_[static_cast<size_t>(u)] = 0;
    } else {
      level_[static_cast<size_t>(u)] = -1;
    }
  }
}

// Iterative blocking-flow DFS along level-increasing arcs.
int64_t DinicSolver::BlockingPath(FlowGraph& g, NodeId source, NodeId sink,
                                  int64_t limit) {
  if (source == sink) return limit;
  const EdgeId* start = g.start().data();
  FlowGraph::Arc* arcs = g.arcs().data();
  const EdgeId* partner = g.partner().data();
  stack_.clear();
  stack_.push_back(Frame{source, limit, -1});
  while (!stack_.empty()) {
    Frame& frame = stack_.back();
    const NodeId u = frame.node;
    const int32_t next_level = level_[static_cast<size_t>(u)] + 1;
    EdgeId& it = iter_[static_cast<size_t>(u)];
    const EdgeId end = start[u + 1];
    bool advanced = false;
    while (it < end) {
      const FlowGraph::Arc& arc = arcs[it];
      if (arc.cap > 0 && level_[static_cast<size_t>(arc.to)] == next_level) {
        const int64_t next_limit = std::min<int64_t>(frame.limit, arc.cap);
        if (arc.to == sink) {
          // Augment the whole path stored on the stack plus this arc.
          // Every amount fits int32: it is at most an arc's capacity.
          const auto amount = static_cast<int32_t>(next_limit);
          arcs[it].cap -= amount;
          arcs[partner[it]].cap += amount;
          for (size_t i = stack_.size(); i-- > 1;) {
            const EdgeId via = stack_[i].via;
            arcs[via].cap -= amount;
            arcs[partner[via]].cap += amount;
          }
          return next_limit;
        }
        stack_.push_back(Frame{arc.to, next_limit, it});
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
  for (int64_t phase = 0; Bfs(g, source, sink); ++phase) {
    // The first phase's DFS reaches the sink from most nodes, so a pruning
    // walk there costs more arc reads than it saves.
    if (phase > 0) PruneToSink(g, sink);
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
  const EdgeId* start = graph.start().data();
  const FlowGraph::Arc* arcs = graph.arcs().data();
  std::vector<NodeId> queue;
  queue.push_back(source);
  reachable[static_cast<size_t>(source)] = true;
  for (size_t qi = 0; qi < queue.size(); ++qi) {
    const NodeId u = queue[qi];
    for (EdgeId p = start[u]; p < start[u + 1]; ++p) {
      const FlowGraph::Arc& arc = arcs[p];
      if (arc.cap > 0 && !reachable[static_cast<size_t>(arc.to)]) {
        reachable[static_cast<size_t>(arc.to)] = true;
        queue.push_back(arc.to);
      }
    }
  }
  return reachable;
}

}  // namespace ftoa
