// Sharded streaming dispatch: the scale-out layer over the streaming
// AssignmentSession API. A ShardedDispatcher partitions an instance's
// object universe across K shards with a pluggable ShardRouter, opens one
// independent AssignmentSession per shard (all from one configured
// algorithm — the multi-session independence contract of
// core/online_algorithm.h), routes every worker/task arrival to its
// shard's session, and merges the per-shard assignments and traces into a
// single Assignment + aggregated RunMetrics. An optional post-merge
// boundary-reconciliation pass (sim/boundary_reconciler.h) recovers the
// cross-shard matches the partition forfeits.
//
// Execution model: with num_threads <= 1 every routed arrival is fed
// inline on the calling thread, as a direct call into its shard session
// (no staged op, no dispatch switch). With num_threads > 1 each shard is an
// actor fed in *batches*: routed arrivals accumulate in a caller-side
// per-shard staging buffer (no lock — only the caller touches it) and are
// handed to the shard's queue as one batch via a double-buffer swap under
// a single lock, amortizing the cross-thread synchronization over
// handoff_batch events. A batch is flushed when the staging buffer
// reaches handoff_batch events, when the caller declares a time boundary
// (AdvanceTo), and on Flush/Finish. A drain task on the shared
// util/thread_pool applies batches to the shard session, at most one
// drain task in flight per shard, so a shard's events always apply in
// arrival order while distinct shards run concurrently.
//
// Determinism contract: the merged assignment and trace depend only on the
// instance, the router, the shard count, and the reconcile switch — never
// on num_threads, handoff_batch, or the thread interleaving (per-shard
// event order is fixed and the merge walks shards in index order; batching
// changes *when* events cross the thread boundary, never their order).
// With num_shards == 1 every arrival reaches the single shard session in
// exact BuildArrivalStream order, so the merged output is bit-identical to
// the unsharded streaming/batch path (and reconciliation is a no-op — no
// border exists). With num_shards > 1 the output is deterministic but
// generally *different* from the single-session run: shards cannot match
// across the partition boundary and guide capacity is consumed per shard,
// trading matching size for per-decision latency and throughput;
// reconciliation wins part of that utility back (see
// docs/sharded_dispatch.md for the measured tradeoff).

#ifndef FTOA_SIM_SHARDED_DISPATCHER_H_
#define FTOA_SIM_SHARDED_DISPATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/algorithm_registry.h"
#include "core/online_algorithm.h"
#include "model/arrival_stream.h"
#include "model/instance.h"
#include "sim/boundary_reconciler.h"
#include "sim/metrics.h"
#include "sim/shard_router.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace ftoa {

/// Dispatcher configuration.
struct ShardedOptions {
  /// Registry name of the algorithm each shard session runs
  /// (ShardedDispatcher::Create only; the wrapping constructor takes the
  /// algorithm object directly).
  std::string algorithm = "polar-op";

  int num_shards = 1;

  /// Worker threads driving the shard sessions. 1 feeds every shard
  /// inline on the calling thread; 0 = auto: min(num_shards, hardware
  /// concurrency) — oversubscribing cores with actor threads is pure
  /// scheduling overhead, so a single-core host degrades to inline.
  /// Clamped to num_shards (extra threads could never be busy).
  int num_threads = 1;

  ShardRouterKind router = ShardRouterKind::kGrid;

  /// Events staged per shard before the caller hands them to the shard
  /// queue as one batch (threaded mode only; inline mode has no handoff).
  /// 1 = the per-event handoff of the pre-batching dispatcher — one lock
  /// round-trip per event, which dominates end to end for ~100ns
  /// decisions. Clamped to >= 1. Never affects the merged output, only
  /// when events cross the thread boundary.
  int handoff_batch = 256;

  /// Run the post-merge boundary reconciliation pass: match objects left
  /// unmatched near shard borders across the partition (deterministic;
  /// a no-op at 1 shard). See sim/boundary_reconciler.h for the contract.
  bool reconcile = false;

  /// Borrowed worker pool to run shard drains on instead of a dispatcher-
  /// owned pool (threaded mode only; ignored when the resolved num_threads
  /// is <= 1). Lets a host share one pool between shard actors and other
  /// work — the serving harness pairs this with a bounded PoolSlice for
  /// its background guide solves, so both sides draw from the same workers
  /// but the analytical side is capped (see util/thread_pool.h). The pool
  /// must outlive the dispatcher and every session it starts. Thread-count
  /// independence of the merged output is unaffected (the determinism
  /// contract above never depended on who owns the workers).
  ThreadPool* external_pool = nullptr;
};

/// What a finished sharded run produced.
struct ShardedRunResult {
  /// Merged assignment; pairs appear shard by shard in shard index order,
  /// each shard's pairs in its session decision order, followed by the
  /// reconciliation pass's recovered pairs (when enabled) in worker id
  /// order.
  Assignment assignment{0, 0};

  /// Merged trace (RunTrace::Absorb in shard index order).
  RunTrace trace;

  /// Aggregated metrics (MergeShardRunMetrics over shard_metrics; see
  /// sim/metrics.h for the field-by-field merge semantics — counters and
  /// busy_seconds sum, elapsed/percentiles max). The merged
  /// elapsed_seconds is the critical-path bound; Run() overwrites it with
  /// the measured wall clock of the whole replay.
  RunMetrics metrics;

  /// Per-shard breakdown, indexed by shard. elapsed_seconds ==
  /// busy_seconds per shard (a shard has no wall clock of its own).
  std::vector<RunMetrics> shard_metrics;

  /// Boundary-reconciliation breakdown (zeros when the pass is off).
  ReconcileStats reconcile;
};

/// One live sharded run: the streaming counterpart of AssignmentSession at
/// the dispatcher level. Arrival contract matches AssignmentSession
/// (nondecreasing times, each object fed once); calls must come from one
/// caller thread. Finish() may be called exactly once.
class ShardedSession {
 public:
  ~ShardedSession();

  ShardedSession(const ShardedSession&) = delete;
  ShardedSession& operator=(const ShardedSession&) = delete;

  /// Forwards the dispatch-record switch to every shard session. Flip only
  /// before feeding arrivals.
  void set_collect_dispatches(bool collect);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardRouter& router() const { return *router_; }

  /// Routes the arrival to its shard session: a direct call in inline
  /// mode, the shard's staging buffer in threaded mode. With one shard the
  /// router is not consulted. Every kLatencySamplePeriod-th decision of a
  /// shard (sim/metrics.h) is timed on the thread that applies it; the
  /// decision count stays exact.
  void OnWorker(WorkerId worker, double time);
  void OnTask(TaskId task, double time);

  /// Broadcast to every shard session (each shard only ever sees a subset
  /// of arrivals, so the no-earlier-than promise holds per shard too).
  /// A time boundary also flushes every staged batch: the declared
  /// progress reaches the shards immediately.
  void AdvanceTo(double time);

  /// Broadcasts a guide hot-swap (AssignmentSession::SwapGuide) to every
  /// shard session, ordered behind each shard's already-staged events like
  /// AdvanceTo — the swap lands at the same point of every shard's event
  /// order regardless of threading. Shards that adopt it are counted in
  /// their RunMetrics::guide_swaps. Call only at a time boundary.
  void SwapGuide(std::shared_ptr<const OfflineGuide> guide);

  /// Forces all deferred per-shard work (staged batches, batch-window
  /// tails, OPT's solve) and, in threaded mode, blocks until every shard
  /// queue has drained.
  void Flush();

  /// Flushes, finishes every shard session, merges, and (when configured)
  /// runs the boundary reconciliation pass. Fails with FailedPrecondition
  /// if two shards committed the same object — which a correct
  /// router/session pairing makes impossible, since each object is routed
  /// to exactly one shard.
  Result<ShardedRunResult> Finish();

 private:
  friend class ShardedDispatcher;

  /// One staged session call: every call in threaded mode, only the
  /// broadcasts (advance, flush, guide swap) in inline mode.
  struct Op {
    enum class Kind : uint8_t {
      kWorker,
      kTask,
      kAdvance,
      kFlush,
      kSwapGuide
    };
    Kind kind = Kind::kWorker;
    int32_t id = -1;
    double time = 0.0;
    /// kSwapGuide payload (null otherwise).
    std::shared_ptr<const OfflineGuide> guide;
  };

  struct Shard {
    std::unique_ptr<AssignmentSession> session;
    // Written only by the applying thread: exact decision count, adopted
    // guide swaps, and the systematically-sampled latency trace.
    int64_t decisions = 0;
    int64_t guide_swaps = 0;
    std::vector<int64_t> latency_ns;

    /// Caller-side staging buffer (threaded mode): touched only by the
    /// caller thread, handed to `pending` as one batch under the mutex.
    std::vector<Op> staging;

    // Actor state (threaded mode), guarded by `mutex`.
    std::mutex mutex;
    std::vector<Op> pending;
    bool draining = false;
    std::vector<Op> scratch;  // Drain task's swap target; owned by it.
  };

  ShardedSession(const Instance& instance, OnlineAlgorithm* algorithm,
                 std::unique_ptr<ShardRouter> router, ThreadPool* pool,
                 const ShardedOptions& options);

  void Route(ObjectKind kind, int32_t id, double time);
  /// Feeds one arrival to the shard session, timing the sampled ordinals.
  void Decide(Shard& shard, ObjectKind kind, int32_t id, double time);
  /// Applies inline, or stages and hands off a full batch.
  void Stage(Shard& shard, Op op);
  /// Hands the staged batch to the shard queue (one lock, double-buffer
  /// swap when the queue is empty) and schedules a drain if none is live.
  void FlushStaging(Shard& shard);
  void Apply(Shard& shard, const Op& op);
  void Drain(Shard& shard);
  /// Blocks until no drain task is live (threaded mode; no-op inline).
  void Quiesce();

  const Instance* instance_;
  OnlineAlgorithm* algorithm_;  // Borrowed; outlives the session.
  std::unique_ptr<ShardRouter> router_;
  ThreadPool* pool_;  // Null = inline mode. Borrowed from the dispatcher.
  int handoff_batch_ = 1;
  bool reconcile_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex quiesce_mutex_;
  std::condition_variable quiesce_cv_;
  int live_drains_ = 0;  // Shards with a drain task scheduled or running.
  /// First exception a drain task died on (guarded by quiesce_mutex_);
  /// reported by Finish() as an Internal status — the pool future that
  /// would normally carry it is discarded.
  std::exception_ptr failure_;
  bool finished_ = false;
};

/// Routes arrivals across per-shard AssignmentSessions of one algorithm
/// and merges the results. Owns the worker pool shard sessions run on;
/// sessions borrow it, so a session must not outlive its dispatcher.
class ShardedDispatcher {
 public:
  /// Wraps a caller-owned algorithm (`algorithm` must outlive the
  /// dispatcher). Options' `algorithm` name is ignored on this path.
  ShardedDispatcher(OnlineAlgorithm* algorithm,
                    const ShardedOptions& options);

  /// Constructs options.algorithm through the algorithm registry and owns
  /// it. Fails like CreateAlgorithm (unknown name, missing guide) or on
  /// num_shards < 1.
  static Result<std::unique_ptr<ShardedDispatcher>> Create(
      const ShardedOptions& options, const AlgorithmDeps& deps = {});

  /// The thread count a dispatcher actually runs `requested` as: <= 0
  /// resolves to min(num_shards, hardware concurrency), anything else is
  /// clamped to [1, num_shards]. Exposed so front ends can report the
  /// resolved count without re-deriving the policy.
  static int ResolveNumThreads(int requested, int num_shards);

  const ShardedOptions& options() const { return options_; }
  OnlineAlgorithm* algorithm() const { return algorithm_; }

  /// Opens a sharded streaming session over `instance` (which must outlive
  /// the session).
  std::unique_ptr<ShardedSession> StartSession(const Instance& instance);

  /// Batch driver: replays the instance's arrival stream through one
  /// sharded session and merges. Wall time of the whole replay (routing +
  /// shard work + merge + reconciliation) lands in
  /// metrics.elapsed_seconds. Set `collect_dispatches` to false for pure
  /// measurement loops that discard the trace.
  Result<ShardedRunResult> Run(const Instance& instance,
                               bool collect_dispatches = true);

 private:
  ShardedOptions options_;
  std::unique_ptr<OnlineAlgorithm> owned_;  // Set on the Create path.
  OnlineAlgorithm* algorithm_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;  // Owned pool; null when an external
                                      // pool is lent or num_threads <= 1.
  ThreadPool* active_pool_ = nullptr;  // Owned or external; null = inline.
};

}  // namespace ftoa

#endif  // FTOA_SIM_SHARDED_DISPATCHER_H_
