// Reference GR: the rebuild-per-window batch matcher the baseline shipped
// before baselines/gr_batch learned to carry one incremental matcher
// across windows. At every window boundary it re-enumerates every pooled
// worker's candidates and solves a fresh Hopcroft-Karp instance. The
// production session must commit as many pairs on every instance.
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
