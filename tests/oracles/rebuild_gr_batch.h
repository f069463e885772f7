// Reference GR: the rebuild-per-window batch matcher the baseline shipped
// before baselines/gr_batch learned to carry one incremental matcher
// across windows. At every window boundary it re-enumerates every pooled
// worker's candidates and solves a fresh Hopcroft-Karp instance.
//
// What the tests pin: production commits as many pairs as this oracle on
// Example 1 and on GrBatchTest.IncrementalMatchesRebuildOnRandomWorkloads'
// instances (300 workers and 300 tasks, 10x10 grid, 8 slots, four seeds).
// That equality is not a property of every instance. A window's maximum
// matching is not unique: production augments one arrival at a time
// (Kuhn-style) and this oracle runs Hopcroft-Karp, so they can leave
// different workers and tasks unmatched. Those wait into later windows,
// where they meet different partners, and the difference compounds. On
// BM_GrPerObject's instances (30x30 grid, 24 slots, seed 1234) production
// commits 617 pairs against this oracle's 607 at 1k objects per side.
//
// Its candidate radius is v * maxDr, which covers every feasible pair only
// under kDispatchAtAssignmentTime, so it is pinned under that policy only.
// Under kDispatchAtWorkerStart a pair may lie up to v * (Dr + Sr - Sw)
// apart; tests/baselines/gr_batch_test.cc checks GR there with an
// unbounded pair scan instead.

#ifndef FTOA_TESTS_ORACLES_REBUILD_GR_BATCH_H_
#define FTOA_TESTS_ORACLES_REBUILD_GR_BATCH_H_

#include <memory>
#include <string>

#include "baselines/gr_batch.h"

namespace ftoa {
namespace testing {

/// Same contract as GrBatch.
class RebuildGrBatch final : public OnlineAlgorithm {
 public:
  explicit RebuildGrBatch(GrBatchOptions options = {}) : options_(options) {}

  std::string name() const override { return "GR"; }
  FeasibilityPolicy feasibility_policy() const override {
    return options_.policy;
  }

  std::unique_ptr<AssignmentSession> StartSession(
      const Instance& instance) override;

 private:
  GrBatchOptions options_;
};

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_ORACLES_REBUILD_GR_BATCH_H_
