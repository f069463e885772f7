// Live guide refresh for the serving harness: GuideSlot holds the current
// epoch-stamped OfflineGuide behind a mutex (published once, then shared
// immutably via shared_ptr — the reader side is one pointer copy), and
// GuideRefresher regenerates guides from a live PredictionMatrix with
// retry, backoff, a wall-clock deadline, and pluggable fault injection.
//
// Two refresh modes:
//  * RefreshNow — synchronous, on the calling thread. Deterministic: used
//    by tests and by deterministic replays where the refresh must land at
//    an exact window boundary. It remembers the prediction of its last
//    successful solve: generation is a pure function of the prediction
//    (the generator options are fixed per refresher), so a cycle whose
//    prediction equals it republishes the same guide without solving.
//    Its generate step can run ahead of the due window (Prepare, on any
//    one thread at a time); RefreshNow adopts that result only for the
//    same window and prediction, and still consults the fault injector
//    itself, so what it publishes, and when, is unchanged.
//  * StartBackground/Poll — the solve runs on the refresher's own
//    single-thread pool under a SubmitWithDeadline deadline; the harness
//    polls at window boundaries and publishes a completed result. A solve
//    that misses its deadline is *discarded* (DeadlineTask's contract:
//    joined, never abandoned, reported as DeadlineExceeded) — a stale
//    guide is never replaced by a late one out of order. Background cycles
//    always solve: an instant republish would change when the harness
//    adopts it (docs/service_harness.md, "Warm refresh").
//
// Failure semantics (the degradation ladder's input): a refresh cycle that
// exhausts its attempts leaves the slot untouched and reports the error.
// The harness then continues on the stale guide, and drops to guide-free
// greedy only when staleness exceeds its own bound. An injected
// "guide-fail" fault fails the whole cycle (every attempt), which is what
// lets a soak force the ladder to engage deterministically.

#ifndef FTOA_SERVE_GUIDE_REFRESHER_H_
#define FTOA_SERVE_GUIDE_REFRESHER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "core/guide.h"
#include "core/guide_generator.h"
#include "core/prediction_matrix.h"
#include "serve/fault_injector.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace ftoa {

/// Epoch-stamped holder of the current guide. Thread-safe; Get() is a
/// shared_ptr copy, so readers never block publishers for long.
class GuideSlot {
 public:
  struct Snapshot {
    std::shared_ptr<const OfflineGuide> guide;  ///< Null before 1st publish.
    int64_t epoch = 0;             ///< Increments per publish.
    int64_t published_window = -1; ///< Window the guide was published at.
  };

  Snapshot Get() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  int64_t epoch() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return current_.epoch;
  }

  /// Installs `guide` as the new epoch. Returns the published snapshot.
  Snapshot Publish(std::shared_ptr<const OfflineGuide> guide,
                   int64_t window) {
    std::lock_guard<std::mutex> lock(mutex_);
    current_.guide = std::move(guide);
    ++current_.epoch;
    current_.published_window = window;
    return current_;
  }

 private:
  mutable std::mutex mutex_;
  Snapshot current_;
};

/// Regenerates guides from live predictions, with retry/backoff/deadline.
class GuideRefresher {
 public:
  struct Options {
    /// Attempts per refresh cycle before the cycle is reported failed.
    int max_attempts = 3;
    /// Base backoff between attempts, doubling per retry. 0 (the
    /// deterministic-test default) retries immediately.
    double backoff_ms = 0.0;
    /// Wall-clock deadline of one background solve (StartBackground).
    double timeout_ms = 5000.0;
    /// Analytical pool isolation: when set, background solves run on a
    /// PoolSlice of this *borrowed* pool (shared with the shard actors)
    /// instead of the refresher's own dedicated thread — bounded to
    /// `slice_tokens` concurrent tasks so a solve can never occupy every
    /// worker. Null (the default) keeps the dedicated 1-thread pool. The
    /// pool must outlive the refresher.
    ThreadPool* shared_pool = nullptr;
    /// Token-bucket size of the shared-pool slice (clamped to >= 1).
    int slice_tokens = 1;
  };

  /// `faults` may be null (no injection) and is only ever consulted on the
  /// caller's thread; it must outlive the refresher.
  GuideRefresher(double velocity, GuideOptions guide_options, Options options,
                 FaultInjector* faults = nullptr);
  ~GuideRefresher();

  /// Synchronous refresh cycle: generate (with retries), publish into
  /// `slot` on success. On failure the slot is untouched and the last
  /// attempt's error is returned. A prediction equal to the last
  /// successful cycle's publishes that cycle's guide again (a new epoch,
  /// one attempt, no solve); an injected guide-fail still fails the cycle.
  Result<GuideSlot::Snapshot> RefreshNow(const PredictionMatrix& prediction,
                                         int64_t window, GuideSlot* slot);

  /// Runs RefreshNow's generate step for (`prediction`, `window`) ahead of
  /// time and keeps the outcome for that RefreshNow: the next RefreshNow
  /// adopts it when its window and prediction both match (its attempts,
  /// publish, memo and CycleReport are then exactly those of an inline
  /// solve) and drops it otherwise. Nothing is kept when the prediction
  /// equals the memo's (RefreshNow republishes without a solve anyway).
  /// The fault injector is not consulted here: RefreshNow consumes it at
  /// the window, and a fired fault discards the prepared result.
  ///
  /// Touches only RefreshNow's state (the inline generator, the memo, the
  /// prepared result), so it may run on another thread provided no
  /// RefreshNow or Prepare on this refresher overlaps it and the caller
  /// joins it before the next RefreshNow.
  void Prepare(PredictionMatrix prediction, int64_t window);

  /// Starts a background refresh cycle for `window`, publishing into
  /// `slot` when Poll observes completion in time. Returns false (and does
  /// nothing) when a cycle is already in flight. The prediction is copied.
  bool StartBackground(PredictionMatrix prediction, int64_t window,
                       GuideSlot* slot);

  /// What Poll observed about the background cycle.
  enum class PollResult {
    kIdle,       ///< Nothing in flight.
    kRunning,    ///< Still solving (within its deadline, or late but not
                 ///< yet reported as timed out).
    kPublished,  ///< Completed in time; the slot now holds the new guide.
    kFailed,     ///< Cycle failed (all attempts failed, or the deadline
                 ///< passed — a late result will be silently discarded).
  };

  /// Non-blocking progress check; publishes a completed in-time result.
  /// A deadline miss is reported as kFailed and the cycle is abandoned
  /// immediately (the late solve finishes on the pool thread and its
  /// result dies with the discarded future) so a new cycle can start.
  PollResult Poll();

  /// True while a background cycle is in flight.
  bool busy() const { return inflight_.has_value(); }

  struct Stats {
    int64_t attempts = 0;       ///< Individual generate attempts.
    int64_t failed_cycles = 0;  ///< Cycles that published nothing.
    int64_t publishes = 0;
    int64_t timeouts = 0;       ///< Background cycles past their deadline.
  };
  const Stats& stats() const { return stats_; }

  /// Cost attribution of the most recent *published* cycle (RefreshNow or
  /// a harvested background cycle): solve wall time plus the generator's
  /// warm-cache outcome, so the serving harness can report warm-vs-cold
  /// refresh cost per window. Failed/timed-out cycles leave it untouched.
  struct CycleReport {
    double solve_ms = 0.0;       ///< Wall time of the publishing cycle.
    GuideRefreshStats refresh;   ///< Warm-cache outcome of that cycle.
    /// RefreshNow republished its last guide for an unchanged prediction
    /// (no solve ran; `refresh` is all-zero).
    bool unchanged = false;
    /// RefreshNow adopted a Prepare result: the solve ran ahead of the
    /// window, and solve_ms is that solve's own time.
    bool prepared = false;
  };
  const CycleReport& last_cycle() const { return last_cycle_; }

 private:
  struct InFlight {
    DeadlineTask<Result<OfflineGuide>> task;
    int64_t window = 0;
    GuideSlot* slot = nullptr;
    /// Written by the background lambda once, read at harvest (atomic: the
    /// write races with a Poll that reports a timeout first — those
    /// attempts are then simply not merged into stats).
    std::shared_ptr<std::atomic<int64_t>> attempts;
    /// Cycle attribution, written by the lambda before it returns. Plain
    /// (non-atomic) by design: it is only read after the task's future is
    /// observed ready, which synchronizes-with the lambda's return — the
    /// timeout path never reads it.
    std::shared_ptr<CycleReport> report;
  };

  /// A Prepare outcome awaiting its RefreshNow.
  struct Prepared {
    int64_t window = 0;
    PredictionMatrix prediction;
    Result<OfflineGuide> guide;
    int64_t attempts = 0;
    CycleReport report;
  };

  /// RefreshNow's generate step on the inline generator, timed.
  Prepared SolveInline(PredictionMatrix prediction, int64_t window,
                       bool injected_fail);

  Result<OfflineGuide> GenerateWithRetries(const PredictionMatrix& prediction,
                                           bool injected_fail,
                                           GuideGenerator* generator,
                                           const CancellationToken* token,
                                           int64_t* attempts);

  double velocity_;
  GuideOptions guide_options_;
  Options options_;
  FaultInjector* faults_;  // Borrowed; may be null.

  /// Caller-thread generator (RefreshNow) and pool-thread generator
  /// (background lambda) — GuideGenerator is not thread-safe, so each
  /// thread keeps its own (solver-arena reuse stays effective per mode).
  GuideGenerator inline_generator_;
  GuideGenerator background_generator_;

  /// RefreshNow's memo: the prediction of its last successful solve and
  /// the guide that solve published (null before the first).
  struct LastSolve {
    PredictionMatrix prediction;
    std::shared_ptr<const OfflineGuide> guide;
  };
  LastSolve last_inline_solve_;
  std::optional<Prepared> prepared_;

  std::unique_ptr<ThreadPool> pool_;  ///< Lazily created, 1 thread (only
                                      ///< when no shared pool is lent).
  std::unique_ptr<PoolSlice> slice_;  ///< Lazily created bounded slice of
                                      ///< options_.shared_pool.
  std::optional<InFlight> inflight_;
  Stats stats_;
  CycleReport last_cycle_;
};

}  // namespace ftoa

#endif  // FTOA_SERVE_GUIDE_REFRESHER_H_
