#include "sim/boundary_reconciler.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flow/dynamic_matching.h"
#include "model/feasibility.h"
#include "retrieval/candidate_engine.h"
#include "util/thread_pool.h"

namespace ftoa {
namespace {

/// Cell-owner marks: a cell holding no boundary task, or boundary tasks of
/// more than one shard. Any other value is the cell's sole owner shard.
constexpr int32_t kNoTasks = -2;
constexpr int32_t kMixedOwners = -1;

/// Discovery ranges per participant (the caller plus each helper). A few
/// per participant, so ranges left by a participant that starts late or
/// runs slow are taken by the others.
constexpr size_t kRangesPerParticipant = 4;

/// Runs `run_range(r)` once for every r in [0, num_ranges). The caller
/// claims ranges from an atomic cursor alongside up to pool->num_threads()
/// helper tasks, then waits only for the ranges already claimed. A helper
/// the pool starts late finds every range claimed and exits without
/// touching `run_range`, so a busy pool never holds the caller up. An
/// exception a range throws comes back as Internal.
template <typename RangeFn>
Status RunRanges(ThreadPool* pool, int num_ranges, const RangeFn& run_range) {
  struct Progress {
    explicit Progress(int n) : num_ranges(n) {}
    const int num_ranges;
    std::atomic<int> next{0};
    std::mutex mutex;
    std::condition_variable all_done;
    int done = 0;                   // Guarded by mutex.
    Status failure = Status::OK();  // Guarded by mutex; the first wins.
  };
  // Shared with the helpers, which may outlive this call.
  const auto progress = std::make_shared<Progress>(num_ranges);
  const auto claim_and_run = [](Progress& p, const RangeFn& fn) {
    for (int r = p.next.fetch_add(1); r < p.num_ranges;
         r = p.next.fetch_add(1)) {
      // The message is copied here, on the thread that caught it.
      Status failure = Status::OK();
      try {
        fn(r);
      } catch (const std::exception& e) {
        failure = Status::Internal(std::string("reconcile discovery: ") +
                                   e.what());
      } catch (...) {
        failure = Status::Internal("reconcile discovery: unknown exception");
      }
      std::lock_guard<std::mutex> lock(p.mutex);
      if (p.failure.ok()) p.failure = std::move(failure);
      if (++p.done == p.num_ranges) p.all_done.notify_all();
    }
  };
  if (pool != nullptr) {
    const int helpers = std::min(pool->num_threads(), num_ranges - 1);
    for (int h = 0; h < helpers; ++h) {
      // A helper that cannot be queued is simply missing: the caller takes
      // its ranges. Unwinding here instead would leave the helpers already
      // queued running against this frame.
      try {
        pool->Submit([progress, &run_range, claim_and_run] {
          claim_and_run(*progress, run_range);
        });
      } catch (...) {
        break;
      }
    }
  }
  claim_and_run(*progress, run_range);
  std::unique_lock<std::mutex> lock(progress->mutex);
  progress->all_done.wait(
      lock, [&progress] { return progress->done == progress->num_ranges; });
  return progress->failure;
}

}  // namespace

Result<ReconcileStats> ReconcileShardBoundary(const Instance& instance,
                                              const ShardRouter& router,
                                              const ReconcileOptions& options,
                                              Assignment* assignment) {
  ReconcileStats stats;
  if (options.max_candidates_per_worker < 1 ||
      options.max_candidates_per_worker >
          ReconcileOptions::kMaxCandidatesPerWorker) {
    return Status::InvalidArgument(
        "ReconcileOptions::max_candidates_per_worker must lie in [1, " +
        std::to_string(ReconcileOptions::kMaxCandidatesPerWorker) + "]");
  }
  if (router.num_shards() <= 1) return stats;  // No border exists.

  const double velocity = instance.velocity();
  const ReachLimits limits{instance.MaxTaskDuration(),
                           instance.MaxWorkerDuration(), velocity};
  // A worker's candidate tasks start before it leaves (Sr < Sw + Dw).
  const auto worker_reach = [&](const Worker& w) {
    return FeasibleReach(w, w.Deadline(), limits, options.policy);
  };

  // The objects the partition may have cost a match: unmatched and within
  // their feasible reach of another shard's territory.
  std::vector<WorkerId> workers;
  std::vector<int> worker_shard;
  for (const Worker& w : instance.workers()) {
    if (assignment->IsWorkerMatched(w.id)) continue;
    if (!router.NearShardBoundary(w.location, worker_reach(w))) continue;
    workers.push_back(w.id);
    worker_shard.push_back(
        router.Route(ObjectKind::kWorker, w.id, w.location));
  }
  // Boundary tasks in a CandidateStore: the engine's top-k query visits
  // cells nearest-first and binary-searches each bucket's arrival-time
  // window, so a worker only ever touches tasks that could pass the
  // deadline predicate. Each cell also records its sole owner shard
  // (bucketed by the store's own CellOf), so a worker's query skips the
  // cells whose tasks all sit in its own shard; mixed cells keep the
  // per-entry shard check. A guided pass also lists, per guide task type,
  // the cells holding a boundary task of that type.
  const SpacetimeSpec* guide_st =
      options.guide != nullptr ? &options.guide->spacetime() : nullptr;
  CandidateStore store(instance.spacetime().grid());
  std::vector<int32_t> cell_owner(
      static_cast<size_t>(store.grid().num_cells()), kNoTasks);
  std::vector<std::vector<CellId>> cells_of_task_type(
      guide_st != nullptr ? static_cast<size_t>(guide_st->num_types()) : 0);
  std::vector<int> task_shard_of_id(instance.num_tasks(), -1);
  std::vector<int32_t> right_of_task(instance.num_tasks(), -1);
  int64_t num_tasks = 0;
  for (const Task& r : instance.tasks()) {
    if (assignment->IsTaskMatched(r.id)) continue;
    // Sr < Sw + Dw bounds a candidate worker's start from below.
    if (!router.NearShardBoundary(
            r.location,
            FeasibleReach(r, r.start - limits.max_worker_duration, limits,
                          options.policy))) {
      continue;
    }
    store.Insert(RetrievalCandidate{r.id, r.location, r.start, r.Deadline()});
    const int shard = router.Route(ObjectKind::kTask, r.id, r.location);
    task_shard_of_id[static_cast<size_t>(r.id)] = shard;
    const CellId cell = store.grid().CellOf(r.location);
    int32_t& owner = cell_owner[static_cast<size_t>(cell)];
    owner = owner == kNoTasks || owner == shard ? shard : kMixedOwners;
    if (guide_st != nullptr) {
      cells_of_task_type[static_cast<size_t>(
                             guide_st->TypeOf(r.location, r.start))]
          .push_back(cell);
    }
    right_of_task[static_cast<size_t>(r.id)] =
        static_cast<int32_t>(num_tasks);
    ++num_tasks;
  }
  stats.boundary_workers = static_cast<int64_t>(workers.size());
  stats.boundary_tasks = num_tasks;
  if (workers.empty() || num_tasks == 0) return stats;
  // right_of_task indexes tasks in id order; invert it for the commit loop.
  std::vector<TaskId> task_of_right(static_cast<size_t>(num_tasks), -1);
  for (TaskId id = 0; id < static_cast<TaskId>(instance.num_tasks());
       ++id) {
    const int32_t right = right_of_task[static_cast<size_t>(id)];
    if (right >= 0) task_of_right[static_cast<size_t>(right)] = id;
  }

  // Guide capacity: remaining additions allowed per (worker type, task
  // type). Empty map = unguided = uncapped. Discovery only reads it.
  std::unordered_map<int64_t, int32_t> capacity;
  // Guided discovery visits only the cells its capacity can use: the
  // sorted keys with capacity > 0 (grouped by worker type, as TypePairKey
  // is worker-type-major) and each task type's sorted, distinct cells.
  std::vector<int64_t> capacity_keys;
  if (options.guide != nullptr) {
    capacity = options.guide->MatchedPairCountsByTypePair();
    // ftoa-lint: ok(no-unordered-iteration): the keys are sorted below
    for (const auto& [key, count] : capacity) {
      if (count > 0) capacity_keys.push_back(key);
    }
    std::sort(capacity_keys.begin(), capacity_keys.end());
    for (std::vector<CellId>& cells : cells_of_task_type) {
      std::sort(cells.begin(), cells.end());
      cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
    }
  }

  // Candidate discovery: each boundary worker's nearest feasible
  // cross-shard candidates, as right ids in (distance, id) order, in the
  // worker's own row of k slots. Contiguous worker ranges run on the
  // caller and on the lent pool; each range has its own cursor and stats
  // and writes only its workers' rows, so the rows — and the stats summed
  // in range order — are the same for any pool.
  const size_t n = workers.size();
  const size_t k = static_cast<size_t>(options.max_candidates_per_worker);
  std::vector<int32_t> slots(n * k);
  std::vector<int32_t> num_slots(n, 0);
  const int num_ranges =
      options.pool == nullptr
          ? 1
          : static_cast<int>(std::min(
                n, static_cast<size_t>(options.pool->num_threads() + 1) *
                       kRangesPerParticipant));
  std::vector<RetrievalStats> range_stats(static_cast<size_t>(num_ranges));
  const auto discover = [&](int range) {
    const size_t ranges = static_cast<size_t>(num_ranges);
    const size_t begin = n * static_cast<size_t>(range) / ranges;
    const size_t end = n * (static_cast<size_t>(range) + 1) / ranges;
    CandidateCursor cursor(&store, &range_stats[static_cast<size_t>(range)]);
    std::vector<CellId> cells;  // The worker's candidate cells.
    for (size_t i = begin; i < end; ++i) {
      const Worker& w = instance.worker(workers[i]);
      const int shard = worker_shard[i];
      const TypeId worker_type =
          guide_st != nullptr ? guide_st->TypeOf(w.location, w.start) : -1;
      const auto filter = [&](const RetrievalCandidate& entry, double) {
        if (task_shard_of_id[static_cast<size_t>(entry.id)] == shard) {
          return false;
        }
        const Task& r = instance.task(static_cast<TaskId>(entry.id));
        if (!CanServe(w, r, velocity, options.policy)) return false;
        if (guide_st != nullptr) {
          const TypeId task_type = guide_st->TypeOf(r.location, r.start);
          const auto cap = capacity.find(
              options.guide->TypePairKey(worker_type, task_type));
          if (cap == capacity.end() || cap->second <= 0) return false;
        }
        return true;
      };
      // Arrival-time window implied by the deadline predicate (either
      // policy): Sr < Sw + Dw, and the travel-time condition forces
      // Sr >= Sw - Dr. A superset window; CanServe stays the authority.
      // Querying at w.start is safe: a task gone before the worker even
      // starts cannot be served under either policy.
      const StartWindow window{w.start - limits.max_task_duration,
                               w.Deadline()};
      const std::vector<ScoredCandidate>* candidates = nullptr;
      if (guide_st == nullptr) {
        candidates = &cursor.TopK(
            w.location, worker_reach(w), k, w.start, window,
            [&](CellId cell) {
              return cell_owner[static_cast<size_t>(cell)] != shard;
            },
            filter);
      } else {
        // The cells of every task type this worker's type has capacity
        // toward (the query drops repeats), minus its own shard's cells.
        // Every other cell holds only tasks the filter rejects (no
        // capacity, or same shard), so the query stays exact for any guide
        // grid.
        const int64_t type_lo = options.guide->TypePairKey(worker_type, 0);
        const int64_t type_hi = type_lo + guide_st->num_types();
        cells.clear();
        for (auto key = std::lower_bound(capacity_keys.begin(),
                                         capacity_keys.end(), type_lo);
             key != capacity_keys.end() && *key < type_hi; ++key) {
          for (const CellId cell :
               cells_of_task_type[static_cast<size_t>(*key - type_lo)]) {
            if (cell_owner[static_cast<size_t>(cell)] != shard) {
              cells.push_back(cell);
            }
          }
        }
        candidates = &cursor.TopK(w.location, worker_reach(w), k, w.start,
                                  window, cells, filter);
      }
      int32_t* row = &slots[i * k];
      for (const ScoredCandidate& c : *candidates) {
        row[num_slots[i]++] =
            right_of_task[static_cast<size_t>(c.candidate.id)];
      }
    }
  };
  FTOA_RETURN_NOT_OK(RunRanges(options.pool, num_ranges, discover));
  for (const RetrievalStats& range : range_stats) {
    stats.retrieval.Absorb(range);
  }

  // One augmentation per boundary worker, in worker id order, over its
  // kept edges. The engine's TopK is canonical (distance, id), so the kept
  // edges — and hence the recovered matching — are independent of scan
  // order.
  size_t num_edges = 0;
  for (const int32_t count : num_slots) num_edges += static_cast<size_t>(count);
  DynamicBipartiteMatcher matcher;
  matcher.ReserveNodes(n, static_cast<size_t>(num_tasks));
  matcher.ReserveEdges(num_edges);
  for (size_t i = 0; i < n; ++i) matcher.AddLeft();
  for (int64_t j = 0; j < num_tasks; ++j) matcher.AddRight();
  for (size_t i = 0; i < n; ++i) {
    const int32_t* row = &slots[i * k];
    for (int32_t s = 0; s < num_slots[i]; ++s) {
      matcher.AddEdge(static_cast<int32_t>(i), row[s]);
    }
    matcher.TryAugmentLeft(static_cast<int32_t>(i));
  }

  // Commit in worker id order, consuming guide capacity as the shards do.
  for (size_t i = 0; i < n; ++i) {
    const int32_t right = matcher.MatchOfLeft(static_cast<int32_t>(i));
    if (right < 0) continue;
    const Worker& w = instance.worker(workers[i]);
    const Task& r =
        instance.task(task_of_right[static_cast<size_t>(right)]);
    if (guide_st != nullptr) {
      const int64_t key = options.guide->TypePairKey(
          guide_st->TypeOf(w.location, w.start),
          guide_st->TypeOf(r.location, r.start));
      int32_t& remaining = capacity[key];
      if (remaining <= 0) {
        ++stats.capacity_dropped;
        continue;
      }
      --remaining;
    }
    FTOA_RETURN_NOT_OK(
        assignment->Add(w.id, r.id, std::max(w.start, r.start)));
    ++stats.recovered_pairs;
  }
  return stats;
}

}  // namespace ftoa
