#include "flow/min_cost_flow.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

namespace ftoa {

namespace {
constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;

/// Saturating add: clamps into [-kInf, kInf] instead of wrapping. Label
/// arithmetic (`dist + reduced cost`, `potential + cost`) must go through
/// this: a kInf-seeded label plus an adversarial near-limit cost exceeds
/// kInf *before* any `>= kInf` unreachability check and is signed-overflow
/// UB with plain +. Saturation keeps such labels pinned at the "effectively
/// unreachable" rail, so routing decisions and termination stay correct;
/// only the (already meaningless) cost accounting degrades out there.
int64_t SatAdd(int64_t a, int64_t b) {
  int64_t sum;
  if (__builtin_add_overflow(a, b, &sum)) return b > 0 ? kInf : -kInf;
  return std::clamp<int64_t>(sum, -kInf, kInf);
}
}  // namespace

MinCostFlowGraph::MinCostFlowGraph(int32_t num_nodes) { Reset(num_nodes); }

void MinCostFlowGraph::Reset(int32_t num_nodes) {
  head_.assign(static_cast<size_t>(num_nodes), -1);
  next_.clear();
  to_.clear();
  cap_.clear();
  cost_.clear();
  potential_.assign(static_cast<size_t>(num_nodes), 0);
  stamp_.assign(static_cast<size_t>(num_nodes), 0);
  round_ = 0;
  solved_ = false;
  // dist_/in_edge_ are stamped, heap_/touched_/queue_ cleared per use; they
  // only ever need to be at least num_nodes long. level_/cur_ are sized
  // lazily at engine entry and guarded by stamps/fills per use.
  if (dist_.size() < static_cast<size_t>(num_nodes)) {
    dist_.resize(static_cast<size_t>(num_nodes));
    in_edge_.resize(static_cast<size_t>(num_nodes));
  }
}

void MinCostFlowGraph::ReserveEdges(size_t num_edges) {
  to_.reserve(num_edges * 2);
  cap_.reserve(num_edges * 2);
  cost_.reserve(num_edges * 2);
  next_.reserve(num_edges * 2);
}

int64_t MinCostFlowGraph::ReducedCost(int32_t e) const {
  const int32_t u = to_[static_cast<size_t>(e ^ 1)];
  const int32_t v = to_[static_cast<size_t>(e)];
  // Potentials live in [-kInf, 0] (they start at zero and only ever
  // decrease through SatAdd), so the negation is safe and the nested
  // saturating adds clamp instead of wrapping on near-limit costs.
  return SatAdd(SatAdd(cost_[static_cast<size_t>(e)],
                       potential_[static_cast<size_t>(u)]),
                -potential_[static_cast<size_t>(v)]);
}

void MinCostFlowGraph::CheckUnsolved(const char* operation) const {
  if (solved_) {
    std::fprintf(stderr,
                 "MinCostFlowGraph: %s after Solve without Reset (a graph "
                 "is solved once)\n",
                 operation);
    std::abort();
  }
}

int32_t MinCostFlowGraph::AddEdge(int32_t u, int32_t v, int64_t cap,
                                  int64_t cost) {
  CheckUnsolved("AddEdge");
  assert(u >= 0 && u < num_nodes());
  assert(v >= 0 && v < num_nodes());
  assert(cap >= 0);
  assert(cost >= 0);
  // Arc ids are int32 (`e ^ 1` pairing); a city-scale caller overflowing
  // them must die at the boundary instead of silently wrapping ids.
  if (to_.size() >=
      static_cast<size_t>(std::numeric_limits<int32_t>::max()) - 1) {
    std::fprintf(stderr,
                 "MinCostFlowGraph: edge count would exceed int32 arc ids "
                 "(%zu arcs)\n",
                 to_.size());
    std::abort();
  }
  const int32_t forward = static_cast<int32_t>(to_.size());
  to_.push_back(v);
  cap_.push_back(cap);
  cost_.push_back(cost);
  next_.push_back(head_[static_cast<size_t>(u)]);
  head_[static_cast<size_t>(u)] = forward;

  to_.push_back(u);
  cap_.push_back(0);
  cost_.push_back(-cost);
  next_.push_back(head_[static_cast<size_t>(v)]);
  head_[static_cast<size_t>(v)] = forward + 1;
  return forward;
}

FlowInstanceShape MinCostFlowGraph::ComputeShape(int32_t s) const {
  FlowInstanceShape shape;
  shape.num_nodes = num_nodes();
  shape.num_edges = static_cast<int64_t>(num_edges());
  std::vector<int64_t> costs;
  costs.reserve(num_edges());
  for (size_t e = 0; e < to_.size(); e += 2) {
    // cap(e) + cap(e^1) is the original capacity, so the profile reads the
    // same before and after the solve.
    const int64_t original = cap_[e] + cap_[e ^ 1];
    shape.max_capacity = std::max(shape.max_capacity, original);
    if (original == 1) ++shape.unit_capacity_edges;
    costs.push_back(cost_[e]);
  }
  // Distinct cost values — the tie-density signal ChooseFlowEngine uses to
  // decide whether blocking phases can amortize (many flow units per cost
  // class) or would degrade to one augmentation per settle.
  std::sort(costs.begin(), costs.end());
  shape.cost_classes = static_cast<int64_t>(
      std::unique(costs.begin(), costs.end()) - costs.begin());
  if (s >= 0 && s < num_nodes()) {
    for (int32_t e = head_[static_cast<size_t>(s)]; e != -1;
         e = next_[static_cast<size_t>(e)]) {
      if (cap_[static_cast<size_t>(e)] > 0) {
        shape.supply += cap_[static_cast<size_t>(e)];
      }
    }
  }
  return shape;
}

bool MinCostFlowGraph::DijkstraOnce(int32_t s, int32_t t) {
  ++round_;
  ++path_searches_;
  heap_.clear();
  touched_.clear();
  dist_[static_cast<size_t>(s)] = 0;
  in_edge_[static_cast<size_t>(s)] = -1;
  stamp_[static_cast<size_t>(s)] = round_;
  touched_.push_back(s);
  heap_.push_back(HeapEntry{0, s});
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    const int32_t u = top.node;
    if (top.dist != dist_[static_cast<size_t>(u)]) continue;  // Stale entry.
    if (u == t) return true;  // All closer nodes are settled and relaxed.
    for (int32_t e = head_[static_cast<size_t>(u)]; e != -1;
         e = next_[static_cast<size_t>(e)]) {
      if (cap_[static_cast<size_t>(e)] <= 0) continue;
      const int32_t v = to_[static_cast<size_t>(e)];
      const int64_t raw_rc = ReducedCost(e);
      // Once potentials have saturated at -kInf (adversarial cost ranges
      // only), clamping can understate a reduced cost by the clamped slack;
      // a genuinely negative value on sane ranges is a logic bug.
      assert(raw_rc >= 0 || potential_[static_cast<size_t>(v)] <= -kInf);
      const int64_t rc = raw_rc < 0 ? 0 : raw_rc;
      const int64_t candidate = SatAdd(top.dist, rc);
      const bool fresh = stamp_[static_cast<size_t>(v)] != round_;
      if (fresh || candidate < dist_[static_cast<size_t>(v)]) {
        dist_[static_cast<size_t>(v)] = candidate;
        in_edge_[static_cast<size_t>(v)] = e;
        if (fresh) {
          stamp_[static_cast<size_t>(v)] = round_;
          touched_.push_back(v);
        }
        heap_.push_back(HeapEntry{candidate, v});
        std::push_heap(heap_.begin(), heap_.end());
      }
    }
  }
  return false;
}

MinCostFlowGraph::Outcome MinCostFlowGraph::Solve(int32_t s, int32_t t) {
  return Solve(s, t, FlowEngine::kSsp);
}

MinCostFlowGraph::Outcome MinCostFlowGraph::Solve(int32_t s, int32_t t,
                                                  FlowEngine engine) {
  assert(s >= 0 && s < num_nodes());
  assert(t >= 0 && t < num_nodes());
  assert(s != t);
  CheckUnsolved("Solve");
  solved_ = true;
  if (engine == FlowEngine::kAuto) {
    engine = ChooseFlowEngine(ComputeShape(s));
  }
  switch (engine) {
    case FlowEngine::kSsp:
      return SolveSsp(s, t);
    case FlowEngine::kBlockingSsp:
      return SolveBlocking(s, t);
    case FlowEngine::kCostScaling:
      return SolveCostScaling(s, t);
    case FlowEngine::kAuto:
      break;  // Resolved above; unreachable.
  }
  return SolveSsp(s, t);
}

MinCostFlowGraph::Outcome MinCostFlowGraph::SolveSsp(int32_t s, int32_t t) {
  Outcome outcome;
  while (DijkstraOnce(s, t)) {
    const int64_t dist_t = dist_[static_cast<size_t>(t)];
    const int64_t path_cost = dist_t + potential_[static_cast<size_t>(t)] -
                              potential_[static_cast<size_t>(s)];
    // Advance potentials by the capped distance, shifted by -dist(t) so
    // that *untouched* nodes (conceptually at distance infinity, capped to
    // dist(t)) need no write at all. The shift is uniform across the
    // conceptual all-nodes update, so reduced costs are unaffected by it.
    // Case check for a residual arc u -> v:
    //  * both touched: min-capped labels preserve rc >= 0 because a node
    //    with label < dist(t) is settled and has relaxed its arcs;
    //  * u touched, v untouched: then dist(u) >= dist(t) (a settled u
    //    would have labelled v), so u's term is zero — rc unchanged;
    //  * u untouched, v touched: v's term is <= 0, so rc only grows.
    for (const int32_t v : touched_) {
      potential_[static_cast<size_t>(v)] =
          SatAdd(potential_[static_cast<size_t>(v)],
                 std::min(dist_[static_cast<size_t>(v)], dist_t) - dist_t);
    }
    int64_t bottleneck = kInf;
    for (int32_t v = t; v != s;) {
      const int32_t e = in_edge_[static_cast<size_t>(v)];
      bottleneck = std::min(bottleneck, cap_[static_cast<size_t>(e)]);
      v = to_[static_cast<size_t>(e ^ 1)];
    }
    for (int32_t v = t; v != s;) {
      const int32_t e = in_edge_[static_cast<size_t>(v)];
      cap_[static_cast<size_t>(e)] -= bottleneck;
      cap_[static_cast<size_t>(e ^ 1)] += bottleneck;
      v = to_[static_cast<size_t>(e ^ 1)];
    }
    outcome.flow += bottleneck;
    outcome.cost += bottleneck * path_cost;
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// kBlockingSsp: Dijkstra phases feeding blocking flows over the admissible
// subgraph.

bool MinCostFlowGraph::DijkstraSettle(int32_t s, int32_t t) {
  ++round_;
  ++path_searches_;
  heap_.clear();
  touched_.clear();
  dist_[static_cast<size_t>(s)] = 0;
  in_edge_[static_cast<size_t>(s)] = -1;
  stamp_[static_cast<size_t>(s)] = round_;
  touched_.push_back(s);
  heap_.push_back(HeapEntry{0, s});
  int64_t dist_t = kInf;
  bool reached = false;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const HeapEntry top = heap_.back();
    heap_.pop_back();
    const int32_t u = top.node;
    if (top.dist != dist_[static_cast<size_t>(u)]) continue;  // Stale entry.
    // Unlike DijkstraOnce there is no early exit at t: the whole
    // dist <= dist(t) cone gets settled so that *every* shortest path is
    // admissible after the potential update, not just one. Strictly-beyond
    // labels are useless for this phase, so stop there.
    if (top.dist > dist_t) break;
    if (u == t) {
      reached = true;
      dist_t = top.dist;
    }
    for (int32_t e = head_[static_cast<size_t>(u)]; e != -1;
         e = next_[static_cast<size_t>(e)]) {
      if (cap_[static_cast<size_t>(e)] <= 0) continue;
      const int32_t v = to_[static_cast<size_t>(e)];
      const int64_t raw_rc = ReducedCost(e);
      assert(raw_rc >= 0 || potential_[static_cast<size_t>(v)] <= -kInf);
      const int64_t rc = raw_rc < 0 ? 0 : raw_rc;
      const int64_t candidate = SatAdd(top.dist, rc);
      // Labels beyond dist(t) cannot sit on a shortest s-t path; skipping
      // them keeps the settle O(cone), and the potential update's case
      // analysis covers the skipped nodes (their conceptual term is zero).
      if (candidate > dist_t) continue;
      const bool fresh = stamp_[static_cast<size_t>(v)] != round_;
      if (fresh || candidate < dist_[static_cast<size_t>(v)]) {
        dist_[static_cast<size_t>(v)] = candidate;
        in_edge_[static_cast<size_t>(v)] = e;
        if (fresh) {
          stamp_[static_cast<size_t>(v)] = round_;
          touched_.push_back(v);
        }
        heap_.push_back(HeapEntry{candidate, v});
        std::push_heap(heap_.begin(), heap_.end());
      }
    }
  }
  return reached;
}

bool MinCostFlowGraph::BuildLevels(int32_t s, int32_t t, bool admissible) {
  const size_t n = head_.size();
  if (admissible) {
    // Admissible (rc == 0) arcs out of the settled cone do not exist — the
    // potential update leaves every arc leaving it strictly positive — so
    // the BFS can only visit nodes the settle touched; resetting just those
    // keeps the phase O(cone). Stale levels elsewhere are masked by the
    // stamp check below.
    for (const int32_t v : touched_) level_[static_cast<size_t>(v)] = -1;
  } else {
    std::fill(level_.begin(),
              level_.begin() + static_cast<ptrdiff_t>(n), -1);
  }
  frontier_.clear();
  level_[static_cast<size_t>(s)] = 0;
  cur_[static_cast<size_t>(s)] = head_[static_cast<size_t>(s)];
  frontier_.push_back(s);
  const auto usable = [this, admissible](int32_t e, int32_t v) {
    if (cap_[static_cast<size_t>(e)] <= 0) return false;
    if (!admissible) return true;
    return stamp_[static_cast<size_t>(v)] == round_ && ReducedCost(e) == 0;
  };
  int32_t depth = 0;
  while (!frontier_.empty() && level_[static_cast<size_t>(t)] < 0) {
    ++depth;
    next_frontier_.clear();
    for (const int32_t u : frontier_) {
      for (int32_t e = head_[static_cast<size_t>(u)]; e != -1;
           e = next_[static_cast<size_t>(e)]) {
        const int32_t v = to_[static_cast<size_t>(e)];
        if (usable(e, v) && level_[static_cast<size_t>(v)] < 0) {
          level_[static_cast<size_t>(v)] = depth;
          cur_[static_cast<size_t>(v)] = head_[static_cast<size_t>(v)];
          next_frontier_.push_back(v);
        }
      }
    }
    frontier_.swap(next_frontier_);
  }
  return level_[static_cast<size_t>(t)] >= 0;
}

int64_t MinCostFlowGraph::BlockingAugment(int32_t s, int32_t t,
                                          bool admissible) {
  // Iterative DFS with per-node arc cursors (cur_): every arc is retired at
  // most once per blocking flow, so one call is O(V * paths + E).
  int64_t total = 0;
  path_.clear();
  int32_t u = s;
  while (true) {
    if (u == t) {
      int64_t bottleneck = kInf;
      for (const int32_t e : path_) {
        bottleneck = std::min(bottleneck, cap_[static_cast<size_t>(e)]);
      }
      for (const int32_t e : path_) {
        cap_[static_cast<size_t>(e)] -= bottleneck;
        cap_[static_cast<size_t>(e ^ 1)] += bottleneck;
      }
      total += bottleneck;
      // Retreat to just before the first saturated arc and keep going.
      size_t keep = 0;
      while (keep < path_.size() &&
             cap_[static_cast<size_t>(path_[keep])] > 0) {
        ++keep;
      }
      path_.resize(keep);
      u = path_.empty() ? s : to_[static_cast<size_t>(path_.back())];
      continue;
    }
    int32_t e = cur_[static_cast<size_t>(u)];
    while (e != -1) {
      const int32_t v = to_[static_cast<size_t>(e)];
      if (cap_[static_cast<size_t>(e)] > 0 &&
          (!admissible || (stamp_[static_cast<size_t>(v)] == round_ &&
                           ReducedCost(e) == 0)) &&
          level_[static_cast<size_t>(v)] ==
              level_[static_cast<size_t>(u)] + 1) {
        break;
      }
      e = next_[static_cast<size_t>(e)];
    }
    cur_[static_cast<size_t>(u)] = e;
    if (e == -1) {
      if (u == s) break;  // Source exhausted: the flow is blocking.
      // Dead end: retreat one arc and retire it in the parent's cursor so
      // the DFS never re-enters this exhausted node.
      const int32_t back = path_.back();
      path_.pop_back();
      const int32_t parent =
          path_.empty() ? s : to_[static_cast<size_t>(path_.back())];
      cur_[static_cast<size_t>(parent)] = next_[static_cast<size_t>(back)];
      u = parent;
    } else {
      path_.push_back(e);
      u = to_[static_cast<size_t>(e)];
    }
  }
  return total;
}

MinCostFlowGraph::Outcome MinCostFlowGraph::SolveBlocking(int32_t s,
                                                          int32_t t) {
  if (level_.size() < head_.size()) {
    level_.resize(head_.size(), -1);
    cur_.resize(head_.size(), -1);
  }
  Outcome outcome;
  while (DijkstraSettle(s, t)) {
    ++blocking_phases_;
    const int64_t dist_t = dist_[static_cast<size_t>(t)];
    // Per-unit cost of every path in this phase, taken before the update
    // (equal to pi'(t) - pi'(s) afterwards).
    const int64_t path_cost = dist_t + potential_[static_cast<size_t>(t)] -
                              potential_[static_cast<size_t>(s)];
    // Same capped-shifted update (and case analysis) as SolveSsp(); after it
    // every shortest-path arc has reduced cost exactly zero, so the
    // admissible subgraph carries *all* shortest s-t paths at once.
    for (const int32_t v : touched_) {
      potential_[static_cast<size_t>(v)] =
          SatAdd(potential_[static_cast<size_t>(v)],
                 std::min(dist_[static_cast<size_t>(v)], dist_t) - dist_t);
    }
    // Augmenting on zero-reduced-cost arcs exposes their (also
    // zero-reduced-cost) reverses, which can open further shortest paths of
    // the same per-unit cost, so the inner loop re-levels until t is
    // unreachable in the admissible subgraph — i.e. the phase flow is a max
    // flow of the shortest-path subnetwork (Dinic's bound: level(t)
    // strictly increases per iteration).
    int64_t phase_flow = 0;
    while (BuildLevels(s, t, /*admissible=*/true)) {
      const int64_t pushed = BlockingAugment(s, t, /*admissible=*/true);
      assert(pushed > 0);
      if (pushed <= 0) break;  // Defense in depth for NDEBUG builds.
      phase_flow += pushed;
      outcome.flow += pushed;
      outcome.cost += pushed * path_cost;
    }
    if (phase_flow == 0) {
      // Only reachable once labels have saturated at the ±kInf rails
      // (adversarial cost ranges): clamping slack can leave tree arcs with
      // rc != 0, emptying the admissible subgraph. Fall back to augmenting
      // the settle tree's t-path directly so the flow still reaches its
      // maximum and the outer loop keeps making progress.
      int64_t bottleneck = kInf;
      for (int32_t v = t; v != s;) {
        const int32_t e = in_edge_[static_cast<size_t>(v)];
        bottleneck = std::min(bottleneck, cap_[static_cast<size_t>(e)]);
        v = to_[static_cast<size_t>(e ^ 1)];
      }
      for (int32_t v = t; v != s;) {
        const int32_t e = in_edge_[static_cast<size_t>(v)];
        cap_[static_cast<size_t>(e)] -= bottleneck;
        cap_[static_cast<size_t>(e ^ 1)] += bottleneck;
        v = to_[static_cast<size_t>(e ^ 1)];
      }
      outcome.flow += bottleneck;
      outcome.cost += bottleneck * path_cost;
    }
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// kCostScaling: max flow first, then Goldberg-Tarjan eps-scaling refine.

int64_t MinCostFlowGraph::MaxFlowDinic(int32_t s, int32_t t) {
  int64_t total = 0;
  while (BuildLevels(s, t, /*admissible=*/false)) {
    total += BlockingAugment(s, t, /*admissible=*/false);
  }
  return total;
}

void MinCostFlowGraph::Refine(int64_t eps, int64_t scale) {
  ++refine_rounds_;
  const int32_t n = num_nodes();
  const auto scaled_rc = [this, scale](int32_t e) {
    const int32_t u = to_[static_cast<size_t>(e ^ 1)];
    const int32_t v = to_[static_cast<size_t>(e)];
    // In range by the caller's overflow budget: |cost * scale| and the
    // price bound both sit far below kInf (see SolveCostScaling).
    return cost_[static_cast<size_t>(e)] * scale +
           price_[static_cast<size_t>(u)] - price_[static_cast<size_t>(v)];
  };

  // Step 1: saturate every residual arc whose scaled reduced cost is
  // negative; afterwards every residual arc has rc >= 0 >= -eps, so the
  // pseudoflow is eps-optimal and only the node excesses are wrong.
  // Detection reads frozen prices (an arc and its reverse are never both
  // negative, so applying one detected arc cannot change another's
  // detection); the detected arcs are then applied in ascending arc order.
  saturate_.clear();
  const int32_t arc_count = static_cast<int32_t>(to_.size());
  for (int32_t e = 0; e < arc_count; ++e) {
    if (cap_[static_cast<size_t>(e)] > 0 && scaled_rc(e) < 0) {
      saturate_.push_back(e);
    }
  }
  for (const int32_t e : saturate_) {
    const int32_t u = to_[static_cast<size_t>(e ^ 1)];
    const int32_t v = to_[static_cast<size_t>(e)];
    const int64_t c = cap_[static_cast<size_t>(e)];
    cap_[static_cast<size_t>(e)] = 0;
    cap_[static_cast<size_t>(e ^ 1)] += c;
    excess_[static_cast<size_t>(u)] -= c;
    excess_[static_cast<size_t>(v)] += c;
  }

  // Step 2: FIFO push-relabel discharge. excess_ tracks divergence
  // *changes* (it starts and ends all-zero), so s and t need no special
  // casing and the flow value is preserved exactly. Pushes go over
  // admissible (rc < 0) arcs; an exhausted node is relabelled to the
  // highest price that re-admits an arc, minus eps — prices only fall,
  // which bounds the work (Goldberg-Tarjan).
  queue_.clear();
  in_queue_.assign(head_.size(), 0);
  for (int32_t u = 0; u < n; ++u) {
    if (excess_[static_cast<size_t>(u)] > 0) {
      queue_.push_back(u);
      in_queue_[static_cast<size_t>(u)] = 1;
      cur_[static_cast<size_t>(u)] = head_[static_cast<size_t>(u)];
    }
  }
  size_t qhead = 0;
  while (qhead < queue_.size()) {
    const int32_t u = queue_[qhead++];
    if (qhead >= 4096 && qhead * 2 >= queue_.size()) {
      // Compact the drained prefix so the FIFO stays bounded by the live
      // set instead of the total number of activations.
      queue_.erase(queue_.begin(), queue_.begin() + static_cast<ptrdiff_t>(qhead));
      qhead = 0;
    }
    in_queue_[static_cast<size_t>(u)] = 0;
    while (excess_[static_cast<size_t>(u)] > 0) {
      int32_t e = cur_[static_cast<size_t>(u)];
      while (e != -1) {
        if (cap_[static_cast<size_t>(e)] > 0 && scaled_rc(e) < 0) break;
        e = next_[static_cast<size_t>(e)];
      }
      cur_[static_cast<size_t>(u)] = e;
      if (e == -1) {
        // Relabel: a node with positive excess always has a residual arc
        // (its excess can reach a deficit through the residual network of
        // the underlying feasible flow).
        int64_t best = 0;
        bool has_residual = false;
        for (int32_t e2 = head_[static_cast<size_t>(u)]; e2 != -1;
             e2 = next_[static_cast<size_t>(e2)]) {
          if (cap_[static_cast<size_t>(e2)] <= 0) continue;
          const int64_t candidate =
              price_[static_cast<size_t>(to_[static_cast<size_t>(e2)])] -
              cost_[static_cast<size_t>(e2)] * scale;
          if (!has_residual || candidate > best) {
            best = candidate;
            has_residual = true;
          }
        }
        assert(has_residual && "stranded excess in cost-scaling refine");
        if (!has_residual) break;  // Defense in depth for NDEBUG builds.
        price_[static_cast<size_t>(u)] = best - eps;
        cur_[static_cast<size_t>(u)] = head_[static_cast<size_t>(u)];
        continue;
      }
      const int32_t v = to_[static_cast<size_t>(e)];
      const int64_t amount =
          std::min(excess_[static_cast<size_t>(u)],
                   cap_[static_cast<size_t>(e)]);
      cap_[static_cast<size_t>(e)] -= amount;
      cap_[static_cast<size_t>(e ^ 1)] += amount;
      excess_[static_cast<size_t>(u)] -= amount;
      excess_[static_cast<size_t>(v)] += amount;
      if (excess_[static_cast<size_t>(v)] > 0 &&
          !in_queue_[static_cast<size_t>(v)]) {
        in_queue_[static_cast<size_t>(v)] = 1;
        queue_.push_back(v);
        cur_[static_cast<size_t>(v)] = head_[static_cast<size_t>(v)];
      }
    }
  }
}

MinCostFlowGraph::Outcome MinCostFlowGraph::SolveCostScaling(int32_t s,
                                                             int32_t t) {
  const int64_t scale = static_cast<int64_t>(num_nodes()) + 1;
  int64_t max_cost = 0;
  for (size_t e = 0; e < to_.size(); e += 2) {
    max_cost = std::max(max_cost, cost_[e]);
  }
  // Overflow budget: prices drop by at most ~3n * eps per refine round and
  // eps starts at max_cost * scale, so every scaled reduced cost stays
  // within a small multiple of scale * max_cost * n. Keeping that far below
  // kInf needs max_cost <= kInf / (16 * scale^2); otherwise the blocking
  // engine — whose label arithmetic saturates — handles the instance.
  const int64_t cost_budget = ((kInf / 16) / scale) / scale;
  if (max_cost > cost_budget) {
    ++cost_scaling_fallbacks_;
    return SolveBlocking(s, t);
  }
  if (level_.size() < head_.size()) {
    level_.resize(head_.size(), -1);
    cur_.resize(head_.size(), -1);
  }
  Outcome outcome;
  outcome.flow = MaxFlowDinic(s, t);
  price_.assign(head_.size(), 0);
  excess_.assign(head_.size(), 0);
  // Scaled costs are multiples of scale = n + 1, so a 1-optimal flow has no
  // residual cycle cheaper than -n > -scale — i.e. none at all: eps = 1
  // certifies exact optimality. Start at the trivial bound (the zero-price
  // flow is (max_cost * scale)-optimal) and divide by 8 per round.
  int64_t eps = max_cost * scale;
  while (eps > 1) {
    eps = std::max<int64_t>(1, eps / 8);
    Refine(eps, scale);
  }
  // Refine re-routes flow without tracking path costs, so the cost is read
  // off the final routing.
  for (size_t e = 0; e < to_.size(); e += 2) {
    outcome.cost += cap_[e ^ 1] * cost_[e];
  }
  return outcome;
}

}  // namespace ftoa
