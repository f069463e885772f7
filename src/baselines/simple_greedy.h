// SimpleGreedy (paper Section 2.2): for every arriving object, pick the
// feasible counterpart currently waiting on the platform with the shortest
// distance; otherwise the object waits in place until its deadline. Workers
// never relocate (wait-in-place semantics).
//
// The paper's implementation linearly scans all waiting counterparts per
// arrival ("it has to retrieve all the objects when starting to process a
// new object", Section 6.2), which is what makes SimpleGreedy the slowest
// online baseline in Figures 4-6. That scan is the test oracle
// tests/oracles/linear_simple_greedy; this session searches the shared
// retrieval engine (retrieval/waiting_pool.h) instead and commits the same
// pairs, because the engine answers in the scan's canonical (distance, id)
// order. Its queries walk the FeasibleReach radius (model/feasibility.h):
// v * Dr under the default wait-in-place policy, a third of the global
// MaxFeasibleDistance on the city profiles. A query that finds nothing
// walks its whole disk, so the radius sets its cost.

#ifndef FTOA_BASELINES_SIMPLE_GREEDY_H_
#define FTOA_BASELINES_SIMPLE_GREEDY_H_

#include "core/online_algorithm.h"

namespace ftoa {

/// Options for SimpleGreedy.
struct SimpleGreedyOptions {
  /// Pair feasibility. The default models wait-in-place literally (workers
  /// start moving only when assigned); kDispatchAtWorkerStart applies
  /// Definition 4's formula verbatim, crediting movement the baseline
  /// cannot actually perform (ablation knob).
  FeasibilityPolicy policy = FeasibilityPolicy::kDispatchAtAssignmentTime;
};

/// The SimpleGreedy baseline.
class SimpleGreedy : public OnlineAlgorithm {
 public:
  explicit SimpleGreedy(SimpleGreedyOptions options = {});

  std::string name() const override { return "SimpleGreedy"; }
  FeasibilityPolicy feasibility_policy() const override {
    return options_.policy;
  }

  std::unique_ptr<AssignmentSession> StartSession(
      const Instance& instance) override;

 private:
  SimpleGreedyOptions options_;
};

}  // namespace ftoa

#endif  // FTOA_BASELINES_SIMPLE_GREEDY_H_
