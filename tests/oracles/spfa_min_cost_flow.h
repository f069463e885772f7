// Reference min-cost max-flow: the SPFA-per-augmenting-path solver that
// flow/min_cost_flow shipped before its Dijkstra, blocking and
// cost-scaling engines. Each round finds a cheapest residual s-t path with
// a Bellman-Ford queue (SLF heuristic), which handles the negative costs of
// reverse arcs without potentials, and augments its bottleneck. It owns its
// edge list, so tests build it next to the graph under test and compare
// the (flow, cost) outcome: per-edge flows may differ between equally
// cheap solutions, the pair pins them.
//
// Label arithmetic saturates at kInf = int64_max / 4, the same rail the
// production solver uses; a path whose cost saturates counts as
// unreachable.

#ifndef FTOA_TESTS_ORACLES_SPFA_MIN_COST_FLOW_H_
#define FTOA_TESTS_ORACLES_SPFA_MIN_COST_FLOW_H_

#include <cstdint>
#include <vector>

#include "flow/min_cost_flow.h"

namespace ftoa {
namespace testing {

class SpfaMinCostFlow {
 public:
  explicit SpfaMinCostFlow(int32_t num_nodes)
      : head_(static_cast<size_t>(num_nodes), -1) {}

  /// Adds edge u -> v with capacity `cap` >= 0 and per-unit cost
  /// `cost` >= 0.
  void AddEdge(int32_t u, int32_t v, int64_t cap, int64_t cost);

  /// Min-cost maximum flow from s to t; call once per instance.
  MinCostFlowGraph::Outcome Solve(int32_t s, int32_t t);

 private:
  std::vector<int32_t> head_;
  std::vector<int32_t> next_;
  std::vector<int32_t> to_;
  std::vector<int64_t> cap_;
  std::vector<int64_t> cost_;
};

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_ORACLES_SPFA_MIN_COST_FLOW_H_
