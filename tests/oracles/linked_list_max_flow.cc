#include "oracles/linked_list_max_flow.h"

#include <algorithm>
#include <limits>

namespace ftoa {
namespace testing {

int32_t LinkedListMaxFlow::AddEdge(int32_t u, int32_t v, int64_t cap) {
  const auto append = [this](int32_t from, int32_t to, int64_t capacity) {
    next_.push_back(head_[static_cast<size_t>(from)]);
    head_[static_cast<size_t>(from)] = static_cast<int32_t>(to_.size());
    to_.push_back(to);
    cap_.push_back(capacity);
  };
  const int32_t forward = static_cast<int32_t>(to_.size());
  append(u, v, cap);
  append(v, u, 0);
  return forward;
}

int64_t LinkedListMaxFlow::Dinic(int32_t s, int32_t t) {
  const size_t n = head_.size();
  std::vector<int32_t> level(n);
  std::vector<int32_t> iter(n);
  std::vector<int32_t> queue;
  int64_t total = 0;
  while (true) {
    // Full BFS: every node reachable in the residual network gets a level.
    std::fill(level.begin(), level.end(), -1);
    queue.assign(1, s);
    level[static_cast<size_t>(s)] = 0;
    for (size_t qi = 0; qi < queue.size(); ++qi) {
      const int32_t u = queue[qi];
      for (int32_t e = head_[static_cast<size_t>(u)]; e != -1;
           e = next_[static_cast<size_t>(e)]) {
        const int32_t v = to_[static_cast<size_t>(e)];
        if (cap_[static_cast<size_t>(e)] > 0 &&
            level[static_cast<size_t>(v)] < 0) {
          level[static_cast<size_t>(v)] = level[static_cast<size_t>(u)] + 1;
          queue.push_back(v);
        }
      }
    }
    if (level[static_cast<size_t>(t)] < 0) return total;
    iter = head_;
    while (true) {
      const int64_t pushed = DinicPath(s, t, level, iter);
      if (pushed == 0) break;
      total += pushed;
    }
  }
}

int64_t LinkedListMaxFlow::DinicPath(int32_t s, int32_t t,
                                     std::vector<int32_t>& level,
                                     std::vector<int32_t>& iter) {
  struct Frame {
    int32_t node;
    int64_t limit;
    int32_t via;  // Edge taken from the parent frame, -1 at the root.
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{s, std::numeric_limits<int64_t>::max(), -1});
  while (!stack.empty()) {
    const Frame frame = stack.back();
    const int32_t u = frame.node;
    int32_t& it = iter[static_cast<size_t>(u)];
    bool advanced = false;
    while (it != -1) {
      const int32_t e = it;
      const int32_t v = to_[static_cast<size_t>(e)];
      const int64_t cap = cap_[static_cast<size_t>(e)];
      if (cap > 0 && level[static_cast<size_t>(v)] ==
                         level[static_cast<size_t>(u)] + 1) {
        const int64_t limit = std::min(frame.limit, cap);
        if (v == t) {
          // Augment edge e plus the path stored on the stack.
          cap_[static_cast<size_t>(e)] -= limit;
          cap_[static_cast<size_t>(e ^ 1)] += limit;
          for (size_t i = stack.size(); i-- > 1;) {
            const int32_t pe = stack[i].via;
            cap_[static_cast<size_t>(pe)] -= limit;
            cap_[static_cast<size_t>(pe ^ 1)] += limit;
          }
          return limit;
        }
        stack.push_back(Frame{v, limit, e});
        advanced = true;
        break;
      }
      it = next_[static_cast<size_t>(e)];
    }
    if (!advanced) {
      // Dead end: drop u from the level graph and advance the parent.
      level[static_cast<size_t>(u)] = -1;
      stack.pop_back();
      if (!stack.empty()) {
        int32_t& parent_it = iter[static_cast<size_t>(stack.back().node)];
        parent_it = next_[static_cast<size_t>(parent_it)];
      }
    }
  }
  return 0;
}

int64_t LinkedListMaxFlow::FordFulkerson(int32_t s, int32_t t) {
  std::vector<int32_t> mark(head_.size(), 0);
  int64_t total = 0;
  for (int32_t epoch = 1;; ++epoch) {
    const int64_t pushed = AugmentingPath(s, t, mark, epoch);
    if (pushed == 0) return total;
    total += pushed;
  }
}

int64_t LinkedListMaxFlow::AugmentingPath(int32_t s, int32_t t,
                                          std::vector<int32_t>& mark,
                                          int32_t epoch) {
  // Iterative DFS; iters[d] is the next arc to try at depth d, path[d]
  // the arc taken from depth d.
  std::vector<int32_t> iters(1, head_[static_cast<size_t>(s)]);
  std::vector<int32_t> path;
  mark[static_cast<size_t>(s)] = epoch;
  while (!iters.empty()) {
    bool advanced = false;
    while (iters.back() != -1) {
      const int32_t e = iters.back();
      iters.back() = next_[static_cast<size_t>(e)];
      const int32_t v = to_[static_cast<size_t>(e)];
      if (cap_[static_cast<size_t>(e)] <= 0) continue;
      if (mark[static_cast<size_t>(v)] == epoch) continue;
      mark[static_cast<size_t>(v)] = epoch;
      path.push_back(e);
      if (v == t) {
        int64_t bottleneck = cap_[static_cast<size_t>(path[0])];
        for (const int32_t pe : path) {
          bottleneck = std::min(bottleneck, cap_[static_cast<size_t>(pe)]);
        }
        for (const int32_t pe : path) {
          cap_[static_cast<size_t>(pe)] -= bottleneck;
          cap_[static_cast<size_t>(pe ^ 1)] += bottleneck;
        }
        return bottleneck;
      }
      iters.push_back(head_[static_cast<size_t>(v)]);
      advanced = true;
      break;
    }
    if (!advanced) {
      iters.pop_back();
      if (!path.empty()) path.pop_back();
    }
  }
  return 0;
}

}  // namespace testing
}  // namespace ftoa
