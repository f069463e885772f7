// Minimum-cost maximum-flow with selectable solver cores (FlowEngine).
//
// The classic path (`Solve(s, t)`, engine kSsp) runs successive shortest
// paths: Dijkstra over Johnson-reduced costs with a binary heap. Node
// potentials pi(v) are maintained across augmentations so every residual
// arc keeps a non-negative reduced cost
//
//     rc(u -> v) = cost(u -> v) + pi(u) - pi(v) >= 0,        (invariant)
//
// which is what makes Dijkstra admissible on a residual network that
// contains negative reverse arcs. Edge costs must be non-negative (they are
// travel times here, paper Section 4 note (2)), so the initial potential is
// identically zero and no Bellman-Ford bootstrap is needed. After each
// Dijkstra round the potentials are advanced by the capped, shifted
// distance pi(v) += min(dist(v), dist(t)) - dist(t) for every node the
// search labelled. This is the standard capped update written so that
// unlabelled nodes — whose conceptual term min(inf, dist(t)) - dist(t) is
// zero — need no write, which keeps the update O(|touched|) despite the
// early exit when t settles; the uniform -dist(t) shift leaves every
// reduced cost unchanged. See the case analysis at the update site.
//
// `Solve(s, t, engine)` selects among the registered cores
// (flow/flow_engine.h):
//  * kSsp          — the path above; one Dijkstra per augmentation.
//  * kBlockingSsp  — the same Dijkstra phase, but settling the whole
//                    dist <= dist(t) cone, then pushing a *blocking flow*
//                    over the admissible (reduced-cost-zero) subgraph, so
//                    one search feeds many augmenting paths. On
//                    unit-capacity bipartite networks this is the
//                    Hopcroft-Karp regime: O(sqrt(E)) phases.
//  * kCostScaling  — max flow first (Dinic on capacities), then
//                    Goldberg-Tarjan eps-scaling push-relabel refine on
//                    costs scaled by (n + 1): each round saturates every
//                    negative-reduced-cost arc and discharges node
//                    excesses FIFO until the pseudoflow is a circulation
//                    again; eps < 1 on scaled costs certifies exact
//                    optimality. Cost depends on network size, not flow
//                    value. Falls back to kBlockingSsp when the scaled
//                    cost range could overflow (see
//                    cost_scaling_fallbacks()).
//  * kAuto         — ChooseFlowEngine(ComputeShape(s)), a pure function of
//                    the instance shape (measured crossovers).
// Every engine produces an exact min-cost maximum flow and the same
// (flow, cost) outcome; equally-optimal per-edge flow patterns may differ
// between engines, so reproducibility-sensitive callers fix the engine
// (kAuto is deterministic for a fixed network).
//
// Overflow discipline: all label arithmetic (distances, potentials,
// reduced costs) saturates into [-kInfCost, kInfCost] via SatAddCost
// (min_cost_flow.cc) instead of wrapping, so adversarial cost ranges near
// int64 limits degrade to "unreachable" labels rather than undefined
// behavior. Exact *cost accounting* still requires path costs below
// kInfCost; the saturation guarantees the flow routing and termination
// stay correct beyond that.
//
// Reuse contract: the solver owns all scratch buffers (distance labels,
// parent edges, heap storage, visit stamps, level/cursor arrays, prices).
// `Reset()` rewinds the graph for a new instance while keeping every
// allocation, and `ReserveEdges()` pre-sizes the edge arena, so
// steady-state use performs zero heap allocations per Solve.
//
// Solve-once contract: a graph is built, solved once and read. A second
// `Solve`, or an `AddEdge` after a `Solve`, without a `Reset` in between
// aborts with a message: every engine assumes it starts from the zero flow
// with zero potentials, so resuming would return a silently non-optimal
// flow.
//
// Every engine solves on the calling thread; there is no intra-solve
// parallelism (tools/ftoa_lint.py's serial-solver check keeps it so).
//
// The original SPFA-per-path solver survives as a test oracle
// (tests/oracles/spfa_min_cost_flow); every engine must match its
// (flow, cost) outcome.

#ifndef FTOA_FLOW_MIN_COST_FLOW_H_
#define FTOA_FLOW_MIN_COST_FLOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "flow/flow_engine.h"

namespace ftoa {

/// A directed network with capacities and per-unit costs. Not thread-safe:
/// the scratch arenas are owned by the object.
class MinCostFlowGraph {
 public:
  explicit MinCostFlowGraph(int32_t num_nodes = 0);

  /// Rewinds to an empty graph with `num_nodes` nodes, keeping all buffer
  /// capacity (edge arena, heap, labels) from previous instances.
  void Reset(int32_t num_nodes);

  /// Pre-sizes the edge arena for `num_edges` forward edges.
  void ReserveEdges(size_t num_edges);

  /// Adds edge u -> v with capacity `cap` >= 0 and per-unit cost
  /// `cost` >= 0. Returns the forward edge id (residual partner at id ^ 1).
  /// Aborts after a Solve without a Reset (solve-once contract).
  int32_t AddEdge(int32_t u, int32_t v, int64_t cap, int64_t cost);

  /// The flow and cost of this solve.
  struct Outcome {
    int64_t flow = 0;
    int64_t cost = 0;
  };

  /// Sends as much flow as possible from s to t, minimizing total cost
  /// among maximum flows; Dijkstra with potentials (engine kSsp). Once per
  /// Reset: a second call aborts (solve-once contract).
  Outcome Solve(int32_t s, int32_t t);

  /// Same contract, with an explicit solver core. kAuto resolves through
  /// ChooseFlowEngine(ComputeShape(s)) before solving.
  Outcome Solve(int32_t s, int32_t t, FlowEngine engine);

  /// The kAuto selection inputs, measured from the current residual
  /// network: node/edge counts, residual supply out of `s`, and the
  /// original-capacity profile (unit-capacity edge share).
  FlowInstanceShape ComputeShape(int32_t s) const;

  /// Flow carried by forward edge `e`.
  int64_t Flow(int32_t e) const { return cap_[static_cast<size_t>(e ^ 1)]; }

  /// Per-unit cost of forward edge `e`.
  int64_t EdgeCost(int32_t e) const { return cost_[static_cast<size_t>(e)]; }

  int32_t num_nodes() const { return static_cast<int32_t>(head_.size()); }
  /// Number of forward edges.
  size_t num_edges() const { return to_.size() / 2; }

  /// Number of shortest-path computations run so far (instrumentation for
  /// benches and tests). A blocking phase counts as one search.
  int64_t path_searches() const { return path_searches_; }

  /// Blocking phases run by kBlockingSsp so far (instrumentation; each
  /// phase is one Dijkstra settle plus one or more blocking flows).
  int64_t blocking_phases() const { return blocking_phases_; }

  /// Refine rounds run by kCostScaling so far (instrumentation).
  int64_t refine_rounds() const { return refine_rounds_; }

  /// Times kCostScaling fell back to kBlockingSsp because the scaled cost
  /// range could overflow int64 (instrumentation; see file comment).
  int64_t cost_scaling_fallbacks() const { return cost_scaling_fallbacks_; }

 private:
  int64_t ReducedCost(int32_t e) const;
  /// Aborts when this graph was already solved since its last Reset.
  void CheckUnsolved(const char* operation) const;

  // --- kSsp internals.
  Outcome SolveSsp(int32_t s, int32_t t);
  /// Dijkstra over reduced costs; returns true when t was reached and
  /// leaves dist_/in_edge_ describing the shortest-path tree.
  bool DijkstraOnce(int32_t s, int32_t t);

  // --- kBlockingSsp internals.
  Outcome SolveBlocking(int32_t s, int32_t t);
  /// Dijkstra that settles every node with dist <= dist(t) (no early exit
  /// at t) and skips labels beyond dist(t); true when t was reached.
  bool DijkstraSettle(int32_t s, int32_t t);
  /// BFS levels from s over usable arcs (cap > 0, plus rc == 0 when
  /// `admissible` — the post-update shortest-path subgraph); true when t
  /// was levelled.
  bool BuildLevels(int32_t s, int32_t t, bool admissible);
  /// One blocking flow over the level graph (iterative DFS with per-node
  /// arc cursors); returns the flow pushed.
  int64_t BlockingAugment(int32_t s, int32_t t, bool admissible);

  // --- kCostScaling internals.
  Outcome SolveCostScaling(int32_t s, int32_t t);
  /// Dinic max flow on capacities only (costs ignored); flow added.
  int64_t MaxFlowDinic(int32_t s, int32_t t);
  /// One eps-scaling round: saturate every negative-reduced-cost residual
  /// arc, then FIFO push-relabel discharge until all excesses return to
  /// zero.
  void Refine(int64_t eps, int64_t scale);

  // Graph arenas (edge e's residual partner is e ^ 1).
  std::vector<int32_t> head_;
  std::vector<int32_t> next_;
  std::vector<int32_t> to_;
  std::vector<int64_t> cap_;
  std::vector<int64_t> cost_;

  // Potentials and per-solve scratch, all reused across calls.
  std::vector<int64_t> potential_;
  std::vector<int64_t> dist_;
  std::vector<int32_t> in_edge_;
  std::vector<int32_t> stamp_;    // dist_/in_edge_ valid iff == round_.
  std::vector<int32_t> touched_;  // Nodes labelled in the current round.
  int32_t round_ = 0;
  struct HeapEntry {
    int64_t dist;
    int32_t node;
    bool operator<(const HeapEntry& other) const {
      return dist > other.dist;  // Min-heap via std::push_heap.
    }
  };
  std::vector<HeapEntry> heap_;
  // Blocking/Dinic scratch: BFS levels, per-node arc cursors, DFS path.
  std::vector<int32_t> level_;
  std::vector<int32_t> cur_;
  std::vector<int32_t> path_;
  std::vector<int32_t> frontier_;
  std::vector<int32_t> next_frontier_;
  // Cost-scaling scratch: prices, node excesses and the FIFO of active
  // nodes.
  std::vector<int64_t> price_;
  std::vector<int64_t> excess_;
  std::vector<int32_t> saturate_;  // Arc ids detected by the refine scan.
  std::vector<uint8_t> in_queue_;
  std::vector<int32_t> queue_;

  bool solved_ = false;  // A Solve ran since the last Reset.
  int64_t path_searches_ = 0;
  int64_t blocking_phases_ = 0;
  int64_t refine_rounds_ = 0;
  int64_t cost_scaling_fallbacks_ = 0;
};

}  // namespace ftoa

#endif  // FTOA_FLOW_MIN_COST_FLOW_H_
