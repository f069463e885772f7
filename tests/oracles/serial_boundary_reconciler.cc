#include "oracles/serial_boundary_reconciler.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flow/dynamic_matching.h"
#include "model/feasibility.h"
#include "retrieval/candidate_engine.h"

namespace ftoa {
namespace testing {

Result<ReconcileStats> SerialReconcileShardBoundary(
    const Instance& instance, const ShardRouter& router,
    const ReconcileOptions& options, Assignment* assignment) {
  ReconcileStats stats;
  if (router.num_shards() <= 1) return stats;  // No border exists.
  if (options.max_candidates_per_worker < 1) {
    return Status::InvalidArgument(
        "ReconcileOptions::max_candidates_per_worker must be >= 1");
  }

  const double velocity = instance.velocity();
  const double max_task_duration = instance.MaxTaskDuration();
  const double radius = MaxFeasibleDistance(
      max_task_duration, instance.MaxWorkerDuration(), velocity);

  // The objects the partition may have cost a match: unmatched and within
  // the feasibility radius of another shard's territory.
  std::vector<WorkerId> workers;
  std::vector<int> worker_shard;
  for (const Worker& w : instance.workers()) {
    if (assignment->IsWorkerMatched(w.id)) continue;
    if (!router.NearShardBoundary(w.location, radius)) continue;
    workers.push_back(w.id);
    worker_shard.push_back(
        router.Route(ObjectKind::kWorker, w.id, w.location));
  }
  // Boundary tasks in a CandidateStore: the engine's top-k query walks
  // cells nearest-first and binary-searches each bucket's arrival-time
  // window, so a worker only ever touches tasks that could pass the
  // deadline predicate — the same cell walk every per-arrival scan uses.
  CandidateStore store(instance.spacetime().grid());
  std::vector<int> task_shard_of_id(instance.num_tasks(), -1);
  std::vector<int32_t> right_of_task(instance.num_tasks(), -1);
  int64_t num_tasks = 0;
  for (const Task& r : instance.tasks()) {
    if (assignment->IsTaskMatched(r.id)) continue;
    if (!router.NearShardBoundary(r.location, radius)) continue;
    store.Insert(RetrievalCandidate{r.id, r.location, r.start, r.Deadline()});
    task_shard_of_id[static_cast<size_t>(r.id)] =
        router.Route(ObjectKind::kTask, r.id, r.location);
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
  // type). Empty map = unguided = uncapped.
  std::unordered_map<int64_t, int32_t> capacity;
  if (options.guide != nullptr) {
    capacity = options.guide->MatchedPairCountsByTypePair();
  }
  const SpacetimeSpec* guide_st =
      options.guide != nullptr ? &options.guide->spacetime() : nullptr;

  DynamicBipartiteMatcher matcher;
  matcher.ReserveNodes(workers.size(), static_cast<size_t>(num_tasks));
  matcher.ReserveEdges(workers.size() *
                       static_cast<size_t>(options.max_candidates_per_worker));
  for (size_t i = 0; i < workers.size(); ++i) matcher.AddLeft();
  for (int64_t j = 0; j < num_tasks; ++j) matcher.AddRight();

  // One augmentation per boundary worker, in worker id order, over the
  // worker's nearest feasible cross-shard candidates. The engine's TopK is
  // canonical (distance, id), so the kept edges — and hence the recovered
  // matching — are independent of scan order.
  CandidateCursor cursor(&store, &stats.retrieval);
  for (size_t i = 0; i < workers.size(); ++i) {
    const Worker& w = instance.worker(workers[i]);
    const int shard = worker_shard[i];
    const TypeId worker_type =
        guide_st != nullptr ? guide_st->TypeOf(w.location, w.start) : -1;
    // Arrival-time window implied by the deadline predicate (either
    // policy): Sr < Sw + Dw, and the travel-time condition forces
    // Sr >= Sw - Dr. A superset window; CanServe stays the authority.
    // Querying at w.start is safe: a task gone before the worker even
    // starts cannot be served under either policy.
    const auto& candidates = cursor.TopK(
        w.location, radius,
        static_cast<size_t>(options.max_candidates_per_worker), w.start,
        StartWindow{w.start - max_task_duration, w.start + w.duration},
        [&](const RetrievalCandidate& entry, double) {
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
        });
    for (const ScoredCandidate& c : candidates) {
      matcher.AddEdge(
          static_cast<int32_t>(i),
          right_of_task[static_cast<size_t>(c.candidate.id)]);
    }
    matcher.TryAugmentLeft(static_cast<int32_t>(i));
  }

  // Commit in worker id order, consuming guide capacity as the shards do.
  for (size_t i = 0; i < workers.size(); ++i) {
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

}  // namespace testing
}  // namespace ftoa
