#include "baselines/tgoa.h"

#include <algorithm>
#include <vector>

#include "flow/dynamic_matching.h"
#include "retrieval/waiting_pool.h"

namespace ftoa {

namespace {

// One DynamicBipartiteMatcher holds a maximum matching over the waiting
// (unmatched, alive) pool for the entire run. The first greedy_fraction of
// arrivals (split fixed by the instance's total object count — the arrival
// stream is exactly every object once) is served greedily. Every object
// adds its candidate edges exactly once, at insertion time (pair
// feasibility here is time-invariant, so the later endpoint of a pair
// discovers the edge); a second-phase arrival then costs one
// augmenting-path search — the guardrail "is the newcomer matched in a
// maximum matching of the revealed pool?" answered without rebuilding
// anything. Committed pairs and expired objects are deactivated in place,
// with the one-path repair restoring maximality.
//
// Everything order-sensitive is canonicalized (candidate ids sorted
// before matcher edges are added, expiry sweeps erase in id order), so
// the run is bit-identical across waiting-pool backends — the
// engine-vs-reference contract of tests/retrieval/retrieval_mode_test.cc.
template <typename Pool>
class TgoaSession final : public AssignmentSessionBase {
 public:
  TgoaSession(const Instance& inst, const TgoaOptions& options)
      : AssignmentSessionBase(inst),
        options_(options),
        greedy_phase_(static_cast<size_t>(
            static_cast<double>(inst.num_workers() + inst.num_tasks()) *
            options.greedy_fraction)),
        waiting_workers_(inst.spacetime().grid(), &trace_.retrieval),
        waiting_tasks_(inst.spacetime().grid(), &trace_.retrieval),
        limits_{inst.MaxTaskDuration(), inst.MaxWorkerDuration(),
                inst.velocity()},
        worker_slot_(static_cast<size_t>(inst.num_workers()), -1),
        task_slot_(static_cast<size_t>(inst.num_tasks()), -1) {
    matcher_.ReserveNodes(static_cast<size_t>(inst.num_workers()),
                          static_cast<size_t>(inst.num_tasks()));
    // Edge volume is data dependent; seed the arena with a few candidates
    // per object so steady-state growth is amortized away.
    matcher_.ReserveEdges(4 * static_cast<size_t>(inst.num_workers() +
                                                  inst.num_tasks()));
    slot_worker_.reserve(static_cast<size_t>(inst.num_workers()));
    slot_task_.reserve(static_cast<size_t>(inst.num_tasks()));
  }

  void OnWorker(WorkerId worker, double time) override {
    const Worker& w = instance().worker(worker);
    if (InGreedyPhase()) {
      const StartWindow window = TaskWindow(time);
      const int64_t hit = waiting_tasks_.Nearest(
          w.location, Reach(w, window), time, window,
          [&](int64_t id, double) {
            const Task& r = instance().task(static_cast<TaskId>(id));
            return GreedyFeasible(w, r) && r.Deadline() >= time;
          });
      if (hit >= 0) {
        assignment_.Add(w.id, static_cast<TaskId>(hit), time);
        waiting_tasks_.Erase(hit);
        matcher_.RemoveRight(task_slot_[static_cast<size_t>(hit)]);
      } else {
        EnterWorker(w);
        waiting_workers_.Insert(w.id, w.location, w.start, w.Deadline());
      }
    } else {
      const int32_t lslot = EnterWorker(w);
      if (matcher_.TryAugmentLeft(lslot)) {
        const int32_t rslot = matcher_.MatchOfLeft(lslot);
        const TaskId partner = slot_task_[static_cast<size_t>(rslot)];
        assignment_.Add(w.id, partner, time);
        matcher_.RemovePair(lslot, rslot);
        waiting_tasks_.Erase(partner);
      } else {
        waiting_workers_.Insert(w.id, w.location, w.start, w.Deadline());
      }
    }
    FinishEvent(time);
  }

  void OnTask(TaskId task, double time) override {
    const Task& r = instance().task(task);
    if (InGreedyPhase()) {
      const StartWindow window = WorkerWindow(time);
      const int64_t hit = waiting_workers_.Nearest(
          r.location, Reach(r, window), time, window,
          [&](int64_t id, double) {
            const Worker& w = instance().worker(static_cast<WorkerId>(id));
            return GreedyFeasible(w, r) && w.Deadline() >= time;
          });
      if (hit >= 0) {
        assignment_.Add(static_cast<WorkerId>(hit), r.id, time);
        waiting_workers_.Erase(hit);
        matcher_.RemoveLeft(worker_slot_[static_cast<size_t>(hit)]);
      } else {
        EnterTask(r);
        waiting_tasks_.Insert(r.id, r.location, r.start, r.Deadline());
      }
    } else {
      const int32_t rslot = EnterTask(r);
      if (matcher_.TryAugmentRight(rslot)) {
        const int32_t lslot = matcher_.MatchOfRight(rslot);
        const WorkerId partner = slot_worker_[static_cast<size_t>(lslot)];
        assignment_.Add(partner, r.id, time);
        matcher_.RemovePair(lslot, rslot);
        waiting_workers_.Erase(partner);
      } else {
        waiting_tasks_.Insert(r.id, r.location, r.start, r.Deadline());
      }
    }
    FinishEvent(time);
  }

  void Flush() override {
    // Fold the matcher instrumentation into the trace (delta-based, so
    // repeated Flush calls stay correct).
    trace_.matcher_augment_searches +=
        matcher_.augment_searches() - recorded_augment_searches_;
    recorded_augment_searches_ = matcher_.augment_searches();
  }

 private:
  bool GreedyFeasible(const Worker& w, const Task& r) const {
    return CanServe(w, r, instance().velocity(), options_.policy);
  }
  bool InGreedyPhase() const { return event_index_ < greedy_phase_; }

  /// Superset arrival-time window of any task feasible for a query at
  /// `time` (CanServe stays the authority; see simple_greedy.cc).
  StartWindow TaskWindow(double time) const {
    return StartWindow{time - limits_.max_task_duration, time};
  }
  StartWindow WorkerWindow(double time) const {
    return StartWindow{time - limits_.max_worker_duration, time};
  }
  /// Query radius of an arrival whose counterparts start in `window`.
  double Reach(const Worker& w, StartWindow window) const {
    return FeasibleReach(w, window.hi, limits_, options_.policy);
  }
  double Reach(const Task& r, StartWindow window) const {
    return FeasibleReach(r, window.lo, limits_, options_.policy);
  }

  /// Joins the waiting pool: node slot plus candidate edges against the
  /// opposite waiting side (computed once; feasibility never changes).
  /// Edges are added in ascending counterpart id — a canonical order,
  /// independent of the pool backend's enumeration.
  int32_t EnterWorker(const Worker& w) {
    const int32_t lslot = matcher_.AddLeft();
    worker_slot_[static_cast<size_t>(w.id)] = lslot;
    slot_worker_.push_back(w.id);
    scratch_ids_.clear();
    const StartWindow window = TaskWindow(w.start);
    waiting_tasks_.ForEachInDisk(
        w.location, Reach(w, window), w.start, window,
        [&](int64_t id, double) {
          const Task& r = instance().task(static_cast<TaskId>(id));
          if (GreedyFeasible(w, r)) scratch_ids_.push_back(id);
        });
    std::sort(scratch_ids_.begin(), scratch_ids_.end());
    for (const int64_t id : scratch_ids_) {
      matcher_.AddEdge(lslot, task_slot_[static_cast<size_t>(id)]);
    }
    return lslot;
  }
  int32_t EnterTask(const Task& r) {
    const int32_t rslot = matcher_.AddRight();
    task_slot_[static_cast<size_t>(r.id)] = rslot;
    slot_task_.push_back(r.id);
    scratch_ids_.clear();
    const StartWindow window = WorkerWindow(r.start);
    waiting_workers_.ForEachInDisk(
        r.location, Reach(r, window), r.start, window,
        [&](int64_t id, double) {
          const Worker& w = instance().worker(static_cast<WorkerId>(id));
          if (GreedyFeasible(w, r)) scratch_ids_.push_back(id);
        });
    std::sort(scratch_ids_.begin(), scratch_ids_.end());
    for (const int64_t id : scratch_ids_) {
      matcher_.AddEdge(worker_slot_[static_cast<size_t>(id)], rslot);
    }
    return rslot;
  }

  /// Call after each arrival: runs the periodic lazy expiry that keeps the
  /// pools (and the matcher) small, then advances the counter. Expired ids
  /// are erased in ascending id order — canonical across backends. The
  /// pools' own ExpireBefore is not used: the matcher must drop exactly the
  /// ids the pool drops, in this order, and ExpireBefore erases in
  /// deadline order without reporting the ids.
  void FinishEvent(double now) {
    if ((event_index_ & 1023u) == 0u) {
      SweepExpired(
          waiting_workers_, now,
          [&](int64_t id) {
            return instance().worker(static_cast<WorkerId>(id)).Deadline();
          },
          [&](int64_t id) {
            matcher_.RemoveLeft(worker_slot_[static_cast<size_t>(id)]);
          });
      SweepExpired(
          waiting_tasks_, now,
          [&](int64_t id) {
            return instance().task(static_cast<TaskId>(id)).Deadline();
          },
          [&](int64_t id) {
            matcher_.RemoveRight(task_slot_[static_cast<size_t>(id)]);
          });
    }
    ++event_index_;
  }

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

  TgoaOptions options_;
  size_t greedy_phase_;
  size_t event_index_ = 0;
  Pool waiting_workers_;
  Pool waiting_tasks_;
  ReachLimits limits_;
  std::vector<int64_t> scratch_ids_;

  DynamicBipartiteMatcher matcher_;  // Left = workers, right = tasks.
  std::vector<int32_t> worker_slot_;
  std::vector<int32_t> task_slot_;
  std::vector<WorkerId> slot_worker_;
  std::vector<TaskId> slot_task_;
  int64_t recorded_augment_searches_ = 0;
};

}  // namespace

Tgoa::Tgoa(TgoaOptions options) : options_(options) {}

std::unique_ptr<AssignmentSession> Tgoa::StartSession(
    const Instance& instance) {
  if (options_.retrieval == RetrievalMode::kEngine) {
    return std::make_unique<TgoaSession<EngineWaitingPool>>(instance,
                                                            options_);
  }
  return std::make_unique<TgoaSession<GridWaitingPool>>(instance, options_);
}

}  // namespace ftoa
