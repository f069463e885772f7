// ServiceHarness: the long-running serving loop over the streaming
// assignment stack — the robustness tentpole tying together the unbounded
// trace replay (gen/looped_trace), the sharded streaming sessions
// (sim/sharded_dispatcher), live guide refresh with a degradation ladder
// (serve/guide_refresher), fault injection (serve/fault_injector),
// admission control, and rolling-window eviction that keeps memory
// O(live objects).
//
// Time model: one *window* == one day slot == one time unit, on the
// absolute stream axis of LoopedTraceSource (window w covers [w, w+1)).
// The harness processes windows in order; every window emits one
// WindowMetrics row — the soak's observability surface.
//
// Session model: sessions run over fixed object universes, so the
// unbounded stream is cut into *segments* of windows_per_segment windows
// (never crossing a day boundary — the guide's type space is one day).
// Arrivals admitted during a segment plus the previous segments' still-live
// unmatched objects (the carryover) form the segment's instance; the
// segment is replayed through one ShardedSession with AdvanceTo at every
// window boundary, then finished and its matches folded back into the
// store. Objects an injected fault drops on the harness→session handoff
// stay unmatched and are redelivered with the next carryover.
//
// Guide lifecycle: a GuideRefresher re-solves the guide from realized
// per-type counts (previous completed day; the generator's history before
// any day completed) every refresh_period_windows, inline or on a
// background thread; algorithms that read no guide run no refresh at all.
// An inline cycle whose prediction is unchanged republishes the last guide
// unsolved. A publish landing inside a running segment is
// hot-swapped into the live sessions at the next window boundary
// (ShardedSession::SwapGuide — epoch swap at an AdvanceTo boundary, so the
// replay stays deterministic). The degradation ladder at segment start:
// fresh guide -> stale guide (refresh failed, slot kept) -> guide-free
// greedy (no guide yet, or staleness beyond max_guide_age_windows).
//
// Day-ahead pipeline: once the last window of day d is admitted, tomorrow's
// inputs are fixed — the trace is a pure function of the day, and the
// realized-counts prediction is day d's admissions. Unless segments are one
// window long (no replay to hide a job behind), the harness then hands
// one job to its helper thread (a ThreadPool(1) it owns): run the
// refresher's generate step for day d+1's first due inline refresh
// (GuideRefresher::Prepare), then fill the arrival buffer with day d+1
// unless the serving thread has already claimed that fill. The job
// overlaps day d's last segment replay, and RunWindows joins it before
// returning, so no call leaves work running. Whichever comes first of the
// call's end and StartDay(d+1) takes the arrivals (waiting only for a fill
// the helper claimed), the due window's HandleRefresh waits for the whole
// job, and RefreshNow adopts the prepared guide only for that window and
// prediction, so guides, epochs, publish windows and pairs are those of
// the serial loop (docs/service_harness.md, "Day-ahead pipeline").
//
// Memory model: every admitted object gets a record in an ObjectTable
// (serve/object_table.h) — one contiguous array indexed by stream id,
// which admission hands out densely — and an entry in an ExpiryCalendar
// (serve/expiry_calendar.h), one bucket per window: bucket ceil(deadline),
// the first window boundary at which the deadline has passed. Expiry runs
// only at integer window boundaries, so draining the buckets up to window
// w expires exactly the objects whose deadline is <= w. Expired records
// are freed at the next rotation (the open segment may still match them),
// matched records at the fold. The store never holds more than the live
// set plus the current segment, and the table's array spans from the
// oldest present record to the newest: at most the longest duration plus
// one segment of admissions. Eviction is *observationally inert*: the
// committed assignments equal those of a loop that keeps every record
// (pinned against tests/oracles/reference_serve_loop).
//
// Admission control: per window the harness sheds deterministically,
// oldest deadline first, whenever the offered batch exceeds
// max_queue_depth, the last completed window's sampled p99 exceeded
// slo_p99_ms (backpressure; the signal lags by up to one segment because
// latency is measured at replay), or admitting would exceed
// max_live_objects.

#ifndef FTOA_SERVE_SERVICE_HARNESS_H_
#define FTOA_SERVE_SERVICE_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/guide_generator.h"
#include "gen/config.h"
#include "gen/looped_trace.h"
#include "prediction/predictor.h"
#include "retrieval/mode.h"
#include "serve/expiry_calendar.h"
#include "serve/fault_injector.h"
#include "serve/guide_refresher.h"
#include "serve/object_table.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace ftoa {

/// Serving-loop configuration.
struct ServiceOptions {
  /// Registry name of the guided serving algorithm (the ladder drops to
  /// "simple-greedy" when no usable guide exists).
  std::string algorithm = "polar-op";

  /// Sharding of each segment's session (sim/sharded_dispatcher); 0 runs
  /// one shard, a negative count fails Create.
  int num_shards = 1;
  int shard_threads = 1;
  bool reconcile = false;

  /// Read by nothing: every served algorithm, the degraded-greedy rung
  /// included, searches candidates on the retrieval engine and surfaces
  /// its per-query stats in the rotation window's WindowMetrics. Kept
  /// single-valued only because the end-to-end benchmark driver
  /// (bench/e2e/ftoa_e2e.cc) assigns it; delete it with that driver's next
  /// edit.
  RetrievalMode retrieval = RetrievalMode::kEngine;

  /// Windows per session segment; 0 = a full day (slots_per_day). Clamped
  /// to [1, slots_per_day] — segments never cross a day boundary.
  int windows_per_segment = 0;

  /// Windows between guide refresh cycles; 0 = once per day. The first
  /// cycle runs at window 0 (the bootstrap, from the generator's history).
  int refresh_period_windows = 0;

  /// Refresh on the refresher's background thread (poll at every window
  /// boundary) instead of inline at the due window.
  bool background_refresh = false;

  /// Learned predictor feeding the refresher (prediction/registry name,
  /// e.g. "HA" or "LR") instead of raw last-day realized counts. The
  /// predictor is fitted on the generator's history plus every completed
  /// stream day (rolling refit at each day boundary) and predicts the
  /// coming day per (slot, cell). Empty (the default) keeps the
  /// realized-counts source. Unknown names fail Create.
  std::string refresh_predictor;

  /// Analytical pool isolation: > 0 shares one thread pool between the
  /// shard actors and the background refresher, with the refresher capped
  /// to this many concurrent tasks via a PoolSlice (util/thread_pool.h) so
  /// a background solve can never occupy every worker. 0 (the default)
  /// keeps the PR 6 layout: dispatcher-owned shard pool, dedicated
  /// refresher thread. Only meaningful with background_refresh.
  int analytical_slice = 0;

  /// Backpressure SLO on the per-window p99 decision latency; 0 disables
  /// the latency trigger (keeps replays deterministic in tests). Negative
  /// or non-finite values fail Create.
  double slo_p99_ms = 0.0;

  /// When the latency SLO trips, this fraction of the next window's
  /// offered batch is shed (oldest deadline first).
  double overload_shed_fraction = 0.5;

  /// Per-window admission cap on the offered batch; 0 = unlimited,
  /// negative fails Create.
  int64_t max_queue_depth = 0;

  /// Cap on simultaneously live (admitted, unexpired, unmatched) objects;
  /// admission beyond it sheds. 0 = unlimited, negative fails Create.
  int64_t max_live_objects = 0;

  /// Guide staleness (windows since publish) beyond which a segment runs
  /// guide-free greedy instead; 0 = never degrade on age alone.
  int64_t max_guide_age_windows = 0;

  /// Fault plan (serve/fault_injector spec grammar; empty = none) and its
  /// RNG seed.
  std::string faults;
  uint64_t fault_seed = 1;

  /// Guide solve configuration. worker_duration/task_duration are derived
  /// from the city profile at Create; other fields are honored as given.
  GuideOptions guide;
  GuideRefresher::Options refresh;
};

/// One window's report — every processed window emits exactly one.
struct WindowMetrics {
  int64_t window = 0;
  int64_t day = 0;

  int64_t offered = 0;       ///< Base arrivals + flash clones.
  int64_t flash_clones = 0;  ///< Injected flash-crowd extras within offered.
  int64_t admitted = 0;
  int64_t shed = 0;
  /// Arrivals lost to an injected handoff drop this window (they are
  /// redelivered with the next segment's carryover).
  int64_t dropped_arrivals = 0;
  /// Pairs committed by the segment that rotated at this window (0 for
  /// non-rotation windows).
  int64_t matched = 0;
  /// Of `matched`: pairs the segment's boundary reconciliation pass
  /// recovered at this rotation (0 without --reconcile or with one shard).
  int64_t reconciled = 0;

  /// Candidate-retrieval stats of the rotated segment (attributed to the
  /// rotation window, like `matched`). All-zero for non-rotation windows
  /// and for algorithms that search no candidates spatially.
  int64_t retrieval_queries = 0;
  int64_t candidates_examined = 0;
  int64_t cells_visited_p50 = 0;
  int64_t cells_visited_p99 = 0;

  /// Harness-side decision latency of the window's fed events: a 1-in-
  /// kLatencySamplePeriod systematic sample by the decision's ordinal in
  /// the window (0, 8, 16, ...), so a window with a decision has a sample.
  /// Nearest-rank percentiles over the sample; injected slow-lane stalls
  /// are added to each sampled decision. `decisions` counts every fed
  /// event exactly; `latency_samples` == ceil(decisions / 8).
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  int64_t decisions = 0;
  int64_t latency_samples = 0;

  /// Sets latency_samples and p50/p99/max from the window's nanosecond
  /// sample (sim/metrics.h's NearestRankPercentile; reorders the sample).
  void FillLatencies(std::vector<int64_t>& sample_ns);

  int64_t live_objects = 0;  ///< Live gauge at the end of admission.
  int64_t evicted = 0;       ///< Expired-unmatched objects popped this window.
  uint64_t live_bytes = 0;   ///< util/memory_tracker gauge.

  int64_t guide_epoch = 0;
  int64_t guide_age_windows = -1;  ///< -1 = no guide published yet.
  int64_t refresh_failures = 0;    ///< Cumulative failed refresh cycles.

  /// Refresh cost attribution: the cycle whose publish landed at this
  /// window (inline refresh, or the window whose poll harvested a
  /// background cycle). All-zero/false when no publish landed here.
  double refresh_ms = 0.0;          ///< Solve wall time of that cycle.
  /// Time the serving thread blocked on the day-ahead job that prepared
  /// this window's guide, at the end of the call that handed it off and at
  /// this window (0 when nothing was prepared): the refresh's
  /// critical-path cost, where refresh_ms is the solve's own time wherever
  /// it ran.
  double refresh_wait_ms = 0.0;
  bool refresh_unchanged = false;   ///< Republished for an equal prediction.
  bool refresh_warm = false;        ///< Any component reused warm.
  int64_t refresh_components_total = 0;
  int64_t refresh_components_reused = 0;  ///< Dirty = total - reused.

  bool degraded_greedy = false;  ///< Segment ran the ladder's greedy rung.
  bool overloaded = false;       ///< Any shed trigger fired this window.
};

/// Lifetime aggregates across all processed windows.
struct ServiceTotals {
  int64_t windows = 0;
  int64_t segments = 0;
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t matched = 0;
  int64_t reconciled = 0;  ///< Of `matched`: boundary-reconciled pairs.
  int64_t evictions = 0;
  int64_t dropped_arrivals = 0;
  /// Guide hot-swaps adopted by running shard sessions (mid-segment).
  int64_t guide_swaps = 0;
  /// Records freed while still live — the eviction safety invariant; any
  /// nonzero value is a harness bug (pinned by the property tests).
  int64_t evicted_live = 0;
  /// High-water mark of the object store (records held simultaneously).
  int64_t store_peak = 0;

  /// Guide refresh cost attribution across all published cycles; each
  /// publish counts in exactly one of the first three.
  int64_t unchanged_refreshes = 0;  ///< Republished without a solve.
  int64_t warm_refreshes = 0;  ///< Published cycles that reused components.
  int64_t cold_refreshes = 0;  ///< Published cycles that solved everything.
  int64_t refresh_components_reused = 0;
  int64_t refresh_components_solved = 0;
  double refresh_ms = 0.0;  ///< Total solve wall time of published cycles.
  /// Published cycles whose solve ran day-ahead on the helper thread, and
  /// the total time due windows blocked on that job.
  int64_t prepared_refreshes = 0;
  double refresh_wait_ms = 0.0;
};

/// The long-running serving loop. Not thread-safe; drive from one thread.
class ServiceHarness {
 public:
  /// Longest worker or task duration Create accepts, in windows: the
  /// expiry calendar holds one bucket per window of the longest duration.
  static constexpr double kMaxDurationWindows = 1 << 20;

  /// Builds a harness over the looped replay of `profile`. Fails on an
  /// unknown algorithm name, a malformed fault spec, a guide-fail fault
  /// for an algorithm that reads no guide (it runs no refresh to fail),
  /// a worker or task duration that is not finite or is negative or
  /// longer than kMaxDurationWindows, a velocity that is not finite and
  /// positive, or trace options LoopedTraceSource::CheckOptions rejects.
  static Result<std::unique_ptr<ServiceHarness>> Create(
      const CityProfile& profile, const LoopedTraceSource::Options& trace,
      const ServiceOptions& options);

  /// Joins a day-ahead job still in flight (a RunWindows that failed may
  /// leave one). The job holds `this`, so a harness is neither copied nor
  /// moved.
  ~ServiceHarness();
  ServiceHarness(const ServiceHarness&) = delete;
  ServiceHarness& operator=(const ServiceHarness&) = delete;

  /// Processes the next `count` windows (admission, eviction, refresh,
  /// replay). A segment still open when the count is reached is rotated
  /// early, so every emitted window has complete metrics on return, and
  /// the day-ahead job is joined, so no helper work is left running.
  Status RunWindows(int64_t count);

  const ServiceOptions& options() const { return options_; }
  const std::vector<WindowMetrics>& windows() const { return windows_; }
  const ServiceTotals& totals() const { return totals_; }
  const GuideRefresher::Stats& refresher_stats() const {
    return refresher_->stats();
  }
  const FaultInjector::Counters& fault_counters() const {
    return faults_.counters();
  }

  int64_t live_objects() const { return live_; }
  /// Records currently held (the live tail plus the open segment).
  int64_t store_size() const { return store_.size(); }
  int64_t guide_epoch() const { return slot_.epoch(); }

  /// Every committed pair as (worker stream id, task stream id), in
  /// segment rotation order — deterministic across thread counts and
  /// pool layouts (the bit-identity contract).
  const std::vector<std::pair<int64_t, int64_t>>& matched_pairs() const {
    return matched_pairs_;
  }

 private:
  /// One admitted (or carried-over) unmatched object, keyed by its stream
  /// id.
  struct ObjectRecord {
    ObjectKind kind = ObjectKind::kWorker;
    Point location;
    double abs_start = 0.0;
    double duration = 0.0;

    double Deadline() const { return abs_start + duration; }
  };

  /// The segment currently accepting windows.
  struct Segment {
    bool open = false;
    int64_t begin = 0;
    int64_t end = 0;  ///< One past the last window (may shrink on flush).
    int64_t day = 0;
    GuideSlot::Snapshot start_guide;
    bool degraded = false;
    std::vector<std::vector<int64_t>> admitted;  ///< Per window, in order.
    /// Publishes that landed mid-segment: applied at their window's
    /// AdvanceTo boundary during replay.
    std::vector<std::pair<int64_t, std::shared_ptr<const OfflineGuide>>>
        swaps;
  };

  /// One object of a segment's replay universe, on the day-relative axis.
  /// Also the element of the persistent rotation spine: the spine holds the
  /// previous segments' unmatched objects sorted by (rel_time, kind,
  /// stream_id), rel_time relative to spine_day_.
  struct SpineEntry {
    int64_t stream_id = 0;
    ObjectKind kind = ObjectKind::kWorker;
    double rel_time = 0.0;
    double duration = 0.0;
    Point location;
    int64_t window = 0;  ///< Window its feed latency is attributed to.
  };
  /// Session arrival order of spine entries: (rel_time, kind, stream_id),
  /// workers before tasks at equal times.
  static bool SpineBefore(const SpineEntry& a, const SpineEntry& b);

  /// The helper thread's job for one day (see the header comment).
  struct DayAhead {
    int64_t guide_window = -1;  ///< Window it prepares a guide for; -1 = none.
    /// Taken by the thread that fills day_arrivals_ with the next day: the
    /// helper after its guide solve, or the serving thread if it needs
    /// them first (TakeArrivals).
    std::atomic<bool> arrivals_claimed{false};
    /// Ready once the helper filled day_arrivals_; never set when the
    /// serving thread claimed the fill. Valid until TakeArrivals.
    std::future<Status> arrivals;
    std::future<void> done;  ///< Ready once the whole job returned.
    /// Time FinishDayAhead blocked on a job that prepares a guide; added
    /// to the due window's refresh_wait_ms.
    double waited_ms = 0.0;
  };

  ServiceHarness(LoopedTraceSource source, ServiceOptions options,
                 FaultInjector faults);

  /// Hands day `day`'s job to the helper; called once the last window of
  /// the day before is admitted.
  void StartDayAhead(int64_t day);
  /// Waits for the job in flight, if any.
  void JoinDayAhead();
  /// Makes day_arrivals_ hold day `day`: waits for the helper's fill if the
  /// helper claimed it, fills on this thread otherwise.
  Status TakeArrivals(int64_t day);
  /// Ends RunWindows: a day that ended in the call takes its successor's
  /// arrivals unless the helper has started them, then the job is joined,
  /// so no work a call started outlives it.
  Status FinishDayAhead();
  Status StartDay(int64_t day);
  /// Expires every object whose deadline is <= `window` (called at each
  /// window boundary, in window order).
  void ExpireUpTo(int64_t window, WindowMetrics* metrics);
  Status HandleRefresh(int64_t window);
  PredictionMatrix PredictionFor(int64_t window) const;
  /// The realized-counts prediction: one day's admissions per type.
  PredictionMatrix CountsPrediction(const std::vector<int32_t>& workers,
                                    const std::vector<int32_t>& tasks) const;
  /// Rolling refit of the learned refresh predictor at a day boundary
  /// (refresh_predictor mode only): rebuilds the history-plus-realized
  /// dataset and fits fresh predictor instances on it.
  Status RefitPredictors(int64_t day);
  void StartSegment(int64_t window);
  /// Carryover maintenance: drops spine entries expired by `window`,
  /// re-times survivors when the segment's day differs from spine_day_,
  /// and restores the spine's sort order. O(carryover) (+ O(c log c) on a
  /// day change), never O(store).
  void CompactSpine(int64_t window, int64_t day);
  void AdmitWindow(int64_t window);
  Status ReplaySegment();

  LoopedTraceSource source_;
  ServiceOptions options_;
  FaultInjector faults_;
  GuideSlot slot_;
  /// Shared worker pool (analytical_slice > 0): shard drains and the
  /// refresher's bounded slice both run on it. Declared before the
  /// refresher so the refresher's slice drains first on destruction.
  std::unique_ptr<ThreadPool> shared_pool_;
  std::unique_ptr<GuideRefresher> refresher_;

  int64_t spd_ = 1;  ///< Slots (== windows) per day.
  int64_t next_window_ = 0;

  /// Current day's arrival cache and consumption cursor. The day-ahead job
  /// refills the buffer once the day's last window is admitted.
  std::vector<StreamArrival> day_arrivals_;
  int64_t buffered_day_ = -1;  ///< Day day_arrivals_ holds; -1 = none yet.
  size_t day_cursor_ = 0;

  /// Realized per-type counts: the running day and the last completed one
  /// (the refresh prediction source).
  std::vector<int32_t> day_workers_, day_tasks_;
  std::vector<int32_t> prev_workers_, prev_tasks_;
  bool have_prev_day_ = false;

  /// Learned-predictor refresh state (refresh_predictor mode only):
  /// realized counts of every completed stream day (appended to the
  /// generator history at each refit) and the current fitted predictors.
  std::vector<std::vector<int32_t>> realized_workers_, realized_tasks_;
  std::unique_ptr<Predictor> worker_predictor_, task_predictor_;
  std::unique_ptr<DemandDataset> predictor_data_;
  int predictor_target_day_ = 0;  ///< Dataset day PredictionFor predicts.

  /// Admitted records by stream id; Append hands out the stream ids.
  ObjectTable<ObjectRecord> store_;
  /// Window-boundary expiry schedule of every admitted stream id.
  ExpiryCalendar calendar_;
  int64_t live_ = 0;
  /// Expired records awaiting their free at rotation (the open segment's
  /// replay may still match them).
  std::vector<int64_t> deferred_free_;
  /// Window of the last ExpireUpTo — "already expired" horizon the
  /// match-marking live accounting keys off.
  int64_t expired_up_to_ = 0;

  Segment segment_;
  /// Sampled p99 of the last replayed window (the SLO signal).
  double last_known_p99_ms_ = 0.0;

  /// Rotation spine (see SpineEntry) and the day its rel_times are
  /// relative to (-1 before the first rotation).
  std::vector<SpineEntry> spine_;
  int64_t spine_day_ = -1;

  /// Refresh cost report awaiting attribution to the next emitted window
  /// (HandleRefresh runs before the window's metrics row exists).
  std::optional<GuideRefresher::CycleReport> pending_refresh_report_;
  /// Likewise for the time HandleRefresh blocked on the day-ahead job.
  double pending_refresh_wait_ms_ = 0.0;

  std::vector<WindowMetrics> windows_;
  ServiceTotals totals_;
  std::vector<std::pair<int64_t, int64_t>> matched_pairs_;

  /// The day-ahead helper thread and its one job. Declared last, so the
  /// pool joins before anything the job touches is destroyed (the
  /// destructor joins explicitly anyway).
  std::unique_ptr<ThreadPool> helper_;
  DayAhead day_ahead_;
};

}  // namespace ftoa

#endif  // FTOA_SERVE_SERVICE_HARNESS_H_
