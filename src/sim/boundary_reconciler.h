// Post-merge boundary reconciliation for the sharded streaming pipeline
// (sim/sharded_dispatcher.h). A partitioned run forfeits every match whose
// endpoints the router put into different shards; after the shard merge,
// this pass collects the objects left unmatched within a feasibility-radius
// band of the shard borders and runs one deterministic cross-shard matching
// over them — recovering boundary matches without ever disturbing a pair a
// shard committed.
//
// Contract (property-tested in tests/sim/boundary_reconciler_test.cc):
//  - Pairs are only *added*, never removed or rewired: the merged
//    assignment's existing pairs are a prefix of the reconciled one.
//  - Every added pair joins two previously-unmatched objects routed to
//    *different* shards (same-shard leftovers stay untouched — those are
//    the per-shard algorithm's own decisions) and satisfies the
//    algorithm's object-level deadline policy.
//  - For guided algorithms the additions are guide-capacity-aware: at most
//    guide.MatchedPairCountsByTypePair() pairs per (worker type, task
//    type), mirroring how each shard realizes matches along Ĝf's edges.
//  - The pass is a pure function of (instance, router, merged assignment):
//    bit-identical across reruns, thread counts and lent pool sizes (the
//    assignment and every ReconcileStats field), and a no-op with one
//    shard (no border exists).
//
// Candidate discovery skips every grid cell whose boundary tasks all
// belong to the querying worker's own shard (their entries would fail the
// cross-shard check anyway). A guided pass goes further: it indexes, per
// guide task type, the cells holding a boundary task of that type, and a
// worker scans only the cells of the task types its own type still has
// capacity toward. Every skipped cell holds only entries the per-entry
// filter rejects, so the result is exact for any guide grid. Given a lent
// pool, discovery fans out over contiguous worker-id ranges; the matching
// and the commit stay serial in worker id order.

#ifndef FTOA_SIM_BOUNDARY_RECONCILER_H_
#define FTOA_SIM_BOUNDARY_RECONCILER_H_

#include <cstdint>

#include "core/guide.h"
#include "model/assignment.h"
#include "model/instance.h"
#include "retrieval/stats.h"
#include "sim/shard_router.h"
#include "util/result.h"

namespace ftoa {

class ThreadPool;

/// Reconciliation pass configuration.
struct ReconcileOptions {
  /// Upper bound on max_candidates_per_worker: the pass preallocates
  /// boundary workers x k candidate slots.
  static constexpr int kMaxCandidatesPerWorker = 1024;

  /// Object-level deadline predicate every added pair must satisfy —
  /// the algorithm's own policy (OnlineAlgorithm::feasibility_policy).
  FeasibilityPolicy policy = FeasibilityPolicy::kDispatchAtWorkerStart;

  /// Non-null for guided algorithms (OnlineAlgorithm::guide): additions
  /// are capped per (worker type, task type) by the guide's matched-pair
  /// multiplicities.
  const OfflineGuide* guide = nullptr;

  /// Candidate edges kept per boundary worker (nearest-first). Bounds the
  /// matcher's memory and the augmentation work; the recovered matching is
  /// maximum over the kept edges. Must lie in [1, kMaxCandidatesPerWorker].
  int max_candidates_per_worker = 8;

  /// Borrowed pool that candidate discovery may fan out over; null runs
  /// it on the caller only. Never changes the result. The caller always
  /// takes part and waits only for work a helper has already claimed, so
  /// the pass never waits for the pool's other tasks: a helper the pool
  /// starts late finds no work left.
  ThreadPool* pool = nullptr;
};

/// What one reconciliation pass did.
struct ReconcileStats {
  int64_t boundary_workers = 0;  ///< Unmatched workers near a border.
  int64_t boundary_tasks = 0;    ///< Unmatched tasks near a border.
  int64_t recovered_pairs = 0;   ///< Pairs appended to the assignment.
  int64_t capacity_dropped = 0;  ///< Matches dropped by guide capacity.
  /// Per-worker candidate-scan instrumentation (one retrieval query per
  /// boundary worker).
  RetrievalStats retrieval;
};

/// Appends recovered cross-shard pairs to `assignment` (decision time
/// max(Sw, Sr) — the earliest moment a platform seeing both shards could
/// have committed the pair). Candidate discovery runs the shared retrieval
/// engine's top-k query over a CandidateStore of the boundary tasks
/// (nearest cells first, arrival-time binary search per bucket): the ring
/// walk for an unguided pass, the guide-capacity cell list for a guided
/// one; the
/// matching itself is a DynamicBipartiteMatcher augmented in worker id
/// order, so the result is deterministic and maximum over the kept
/// candidate edges.
Result<ReconcileStats> ReconcileShardBoundary(const Instance& instance,
                                              const ShardRouter& router,
                                              const ReconcileOptions& options,
                                              Assignment* assignment);

}  // namespace ftoa

#endif  // FTOA_SIM_BOUNDARY_RECONCILER_H_
