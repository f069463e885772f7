#include "oracles/rebuild_tgoa.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flow/hopcroft_karp.h"
#include "retrieval/waiting_pool.h"

namespace ftoa {
namespace testing {

namespace {

/// Per-run state of the rebuild session: the greedy-phase split (fixed
/// by the instance's total object count — the arrival stream is exactly
/// every object once), the waiting-pool backends, and the event counter
/// that paces the lazy expiry sweeps.
///
/// Everything order-sensitive is canonicalized (candidate ids sorted
/// before matcher edges are added, expiry sweeps erase in id order), so
/// the run is bit-identical across waiting-pool backends.
template <typename Pool>
class TgoaSessionBase : public AssignmentSessionBase {
 public:
  TgoaSessionBase(const Instance& instance, const TgoaOptions& options)
      : AssignmentSessionBase(instance),
        options_(options),
        greedy_phase_(static_cast<size_t>(
            static_cast<double>(instance.num_workers() +
                                instance.num_tasks()) *
            options.greedy_fraction)),
        waiting_workers_(instance.spacetime().grid(), &trace_.retrieval),
        waiting_tasks_(instance.spacetime().grid(), &trace_.retrieval),
        max_radius_(MaxFeasibleDistance(instance.MaxTaskDuration(),
                                        instance.MaxWorkerDuration(),
                                        instance.velocity())),
        max_task_duration_(instance.MaxTaskDuration()),
        max_worker_duration_(instance.MaxWorkerDuration()) {}

 protected:
  bool GreedyFeasible(const Worker& w, const Task& r) const {
    return CanServe(w, r, instance().velocity(), options_.policy);
  }
  bool InGreedyPhase() const { return event_index_ < greedy_phase_; }

  /// Superset arrival-time window of any task feasible for a query at
  /// `time` (CanServe stays the authority; see simple_greedy.cc).
  StartWindow TaskWindow(double time) const {
    return StartWindow{time - max_task_duration_, time};
  }
  StartWindow WorkerWindow(double time) const {
    return StartWindow{time - max_worker_duration_, time};
  }

  /// Call after each arrival: runs the periodic lazy expiry that keeps the
  /// pools (and the matching pools) small, then advances the counter.
  /// Expired ids are erased in ascending id order — canonical across
  /// backends.
  template <typename OnWorkerGone, typename OnTaskGone>
  void FinishEvent(double now, OnWorkerGone&& worker_gone,
                   OnTaskGone&& task_gone) {
    if ((event_index_ & 1023u) == 0u) {
      SweepExpired(
          waiting_workers_, now,
          [&](int64_t id) {
            return instance().worker(static_cast<WorkerId>(id)).Deadline();
          },
          worker_gone);
      SweepExpired(
          waiting_tasks_, now,
          [&](int64_t id) {
            return instance().task(static_cast<TaskId>(id)).Deadline();
          },
          task_gone);
    }
    ++event_index_;
  }

  TgoaOptions options_;
  size_t greedy_phase_;
  size_t event_index_ = 0;
  Pool waiting_workers_;
  Pool waiting_tasks_;
  double max_radius_;
  double max_task_duration_;
  double max_worker_duration_;
  std::vector<int64_t> scratch_ids_;

 private:
  template <typename DeadlineFn, typename OnEraseFn>
  void SweepExpired(Pool& pool, double now, DeadlineFn&& deadline_of,
                    OnEraseFn&& on_erase) {
    scratch_ids_.clear();
    pool.ForEachId([&](int64_t id) {
      if (deadline_of(id) < now) scratch_ids_.push_back(id);
    });
    std::sort(scratch_ids_.begin(), scratch_ids_.end());
    for (const int64_t id : scratch_ids_) {
      pool.Erase(id);
      on_erase(id);
    }
  }
};

// Rebuild-per-arrival session: reconstructs a Hopcroft-Karp instance (and
// re-enumerates the candidate edges of the whole waiting pool) for every
// second-phase arrival — the O(E sqrt(V))-per-arrival weakness of [26].
template <typename Pool>
class TgoaRebuildSession final : public TgoaSessionBase<Pool> {
  using Base = TgoaSessionBase<Pool>;
  using Base::assignment_;
  using Base::instance;
  using Base::max_radius_;
  using Base::waiting_tasks_;
  using Base::waiting_workers_;

 public:
  using Base::Base;

  void OnWorker(WorkerId worker, double time) override {
    const Worker& w = instance().worker(worker);
    TaskId partner = -1;
    if (this->InGreedyPhase()) {
      const int64_t hit = waiting_tasks_.Nearest(
          w.location, max_radius_, time, this->TaskWindow(time),
          [&](int64_t id, double) {
            const Task& r = instance().task(static_cast<TaskId>(id));
            return this->GreedyFeasible(w, r) && r.Deadline() >= time;
          });
      partner = hit >= 0 ? static_cast<TaskId>(hit) : -1;
    } else {
      partner = OptimalPartnerForWorker(w);
    }
    if (partner >= 0) {
      assignment_.Add(w.id, partner, time);
      waiting_tasks_.Erase(partner);
    } else {
      waiting_workers_.Insert(w.id, w.location, w.start, w.Deadline());
    }
    this->FinishEvent(time, [](int64_t) {}, [](int64_t) {});
  }

  void OnTask(TaskId task, double time) override {
    const Task& r = instance().task(task);
    WorkerId partner = -1;
    if (this->InGreedyPhase()) {
      const int64_t hit = waiting_workers_.Nearest(
          r.location, max_radius_, time, this->WorkerWindow(time),
          [&](int64_t id, double) {
            const Worker& w = instance().worker(static_cast<WorkerId>(id));
            return this->GreedyFeasible(w, r) && w.Deadline() >= time;
          });
      partner = hit >= 0 ? static_cast<WorkerId>(hit) : -1;
    } else {
      partner = OptimalPartnerForTask(r);
    }
    if (partner >= 0) {
      assignment_.Add(partner, r.id, time);
      waiting_workers_.Erase(partner);
    } else {
      waiting_tasks_.Insert(r.id, r.location, r.start, r.Deadline());
    }
    this->FinishEvent(time, [](int64_t) {}, [](int64_t) {});
  }

 private:
  /// Feasible counterpart ids of `origin` in the given pool, ascending —
  /// the canonical edge enumeration shared by both pool backends.
  template <typename OtherPool, typename FeasibleFn>
  std::vector<int64_t> SortedCandidates(OtherPool& pool, Point origin,
                                        double query_time,
                                        StartWindow window,
                                        FeasibleFn&& feasible) {
    std::vector<int64_t> ids;
    pool.ForEachInDisk(origin, max_radius_, query_time, window,
                       [&](int64_t id, double) {
                         if (feasible(id)) ids.push_back(id);
                       });
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  // Optimal-matching guardrail for the second phase: the new object is
  // committed only when it is matched in a maximum matching of all
  // currently waiting (unmatched, alive) objects plus itself. All
  // enumerations are id-sorted, so slot numbering — and hence the solved
  // matching — is canonical across pool backends.
  TaskId OptimalPartnerForWorker(const Worker& w) {
    std::vector<TaskId> right;
    std::unordered_map<int64_t, int32_t> right_slot;
    std::vector<std::pair<int32_t, int32_t>> edges;
    int32_t num_left = 0;

    auto right_index = [&](TaskId id) {
      const auto it = right_slot.find(id);
      if (it != right_slot.end()) return it->second;
      const int32_t slot = static_cast<int32_t>(right.size());
      right_slot[id] = slot;
      right.push_back(id);
      return slot;
    };
    // Edges from every waiting worker (including w) to feasible tasks.
    auto add_worker = [&](const Worker& candidate) {
      const int32_t lid = num_left++;
      for (const int64_t id : SortedCandidates(
               waiting_tasks_, candidate.location, candidate.start,
               this->TaskWindow(candidate.start), [&](int64_t task_id) {
                 return this->GreedyFeasible(
                     candidate,
                     instance().task(static_cast<TaskId>(task_id)));
               })) {
        edges.emplace_back(lid, right_index(static_cast<TaskId>(id)));
      }
    };
    add_worker(w);
    std::vector<int64_t> other_workers;
    waiting_workers_.ForEachId(
        [&](int64_t id) { other_workers.push_back(id); });
    std::sort(other_workers.begin(), other_workers.end());
    for (const int64_t id : other_workers) {
      add_worker(instance().worker(static_cast<WorkerId>(id)));
    }

    if (edges.empty()) return -1;
    HopcroftKarp matcher(num_left, static_cast<int32_t>(right.size()));
    matcher.ReserveEdges(edges.size());
    for (const auto& [l, r] : edges) matcher.AddEdge(l, r);
    matcher.Solve();
    const int32_t partner = matcher.MatchOfLeft(0);  // w is left node 0.
    return partner < 0 ? -1 : right[static_cast<size_t>(partner)];
  }

  WorkerId OptimalPartnerForTask(const Task& r) {
    std::vector<WorkerId> right;
    std::unordered_map<int64_t, int32_t> right_slot;
    std::vector<std::pair<int32_t, int32_t>> edges;
    int32_t num_left = 0;

    auto right_index = [&](WorkerId id) {
      const auto it = right_slot.find(id);
      if (it != right_slot.end()) return it->second;
      const int32_t slot = static_cast<int32_t>(right.size());
      right_slot[id] = slot;
      right.push_back(id);
      return slot;
    };
    auto add_task = [&](const Task& candidate) {
      const int32_t lid = num_left++;
      for (const int64_t id : SortedCandidates(
               waiting_workers_, candidate.location, candidate.start,
               this->WorkerWindow(candidate.start), [&](int64_t worker_id) {
                 return this->GreedyFeasible(
                     instance().worker(static_cast<WorkerId>(worker_id)),
                     candidate);
               })) {
        edges.emplace_back(lid, right_index(static_cast<WorkerId>(id)));
      }
    };
    add_task(r);
    std::vector<int64_t> other_tasks;
    waiting_tasks_.ForEachId(
        [&](int64_t id) { other_tasks.push_back(id); });
    std::sort(other_tasks.begin(), other_tasks.end());
    for (const int64_t id : other_tasks) {
      add_task(instance().task(static_cast<TaskId>(id)));
    }

    if (edges.empty()) return -1;
    HopcroftKarp matcher(num_left, static_cast<int32_t>(right.size()));
    matcher.ReserveEdges(edges.size());
    for (const auto& [l, wkr] : edges) matcher.AddEdge(l, wkr);
    matcher.Solve();
    const int32_t partner = matcher.MatchOfLeft(0);
    return partner < 0 ? -1 : right[static_cast<size_t>(partner)];
  }
};

}  // namespace

std::unique_ptr<AssignmentSession> RebuildTgoa::StartSession(
    const Instance& instance) {
  if (options_.retrieval == RetrievalMode::kEngine) {
    return std::make_unique<TgoaRebuildSession<EngineWaitingPool>>(instance,
                                                                   options_);
  }
  return std::make_unique<TgoaRebuildSession<GridWaitingPool>>(instance,
                                                               options_);
}

}  // namespace testing
}  // namespace ftoa
