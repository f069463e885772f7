// GR (To et al., "A server-assigned spatial crowdsourcing framework", ACM
// TSAS 2015 — reference [24] of the paper): the platform gathers the objects
// arriving within a time window and, at each window boundary, computes a
// maximum-cardinality matching among all currently-alive unmatched workers
// and tasks (wait-in-place semantics). Matched pairs are committed; the
// rest carry over to later windows until their deadlines pass.
//
// One incremental matcher is carried across windows: each window only
// inserts the new arrivals' nodes/edges and re-augments for them, instead
// of re-enumerating every pooled worker's candidates and rebuilding a
// Hopcroft-Karp instance per window. Sound because matched pairs leave the
// pool at once: leftovers are pairwise infeasible, so every edge of the
// next window's graph touches a new arrival. The rebuild-per-window
// matcher survives as a test oracle (tests/oracles/rebuild_gr_batch).

#ifndef FTOA_BASELINES_GR_BATCH_H_
#define FTOA_BASELINES_GR_BATCH_H_

#include "core/online_algorithm.h"

namespace ftoa {

/// Options for the GR baseline.
struct GrBatchOptions {
  /// Window length in time units; <= 0 means "a quarter of a time slot",
  /// which keeps the batching benefit (maximum matching per window) ahead
  /// of the expiry cost for the paper's deadline ranges.
  double window = 0.0;

  /// Pair feasibility. The default models wait-in-place literally: a
  /// matched worker departs at the window boundary where the batch match is
  /// decided. kDispatchAtWorkerStart applies Definition 4's formula
  /// verbatim instead (ablation knob).
  FeasibilityPolicy policy = FeasibilityPolicy::kDispatchAtAssignmentTime;
};

/// The GR batched-matching baseline.
class GrBatch : public OnlineAlgorithm {
 public:
  explicit GrBatch(GrBatchOptions options = {});

  std::string name() const override { return "GR"; }
  FeasibilityPolicy feasibility_policy() const override {
    return options_.policy;
  }

  std::unique_ptr<AssignmentSession> StartSession(
      const Instance& instance) override;

 private:
  GrBatchOptions options_;
};

}  // namespace ftoa

#endif  // FTOA_BASELINES_GR_BATCH_H_
