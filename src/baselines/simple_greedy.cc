#include "baselines/simple_greedy.h"

#include <limits>
#include <vector>

#include "retrieval/waiting_pool.h"

namespace ftoa {

namespace {

/// Engine-backed variant: candidate search through the shared retrieval
/// engine, with deadline/window pruning and per-query stats. Each decision
/// first expires both pools at its time, so the walks see live entries
/// only. Nearest answers are canonical (distance, id), so the assignment is
/// bit-identical to the linear scan.
class EngineGreedySession final : public AssignmentSessionBase {
 public:
  EngineGreedySession(const Instance& instance, SimpleGreedyOptions options)
      : AssignmentSessionBase(instance),
        options_(options),
        waiting_workers_(instance.spacetime().grid(), &trace_.retrieval),
        waiting_tasks_(instance.spacetime().grid(), &trace_.retrieval),
        limits_{instance.MaxTaskDuration(), instance.MaxWorkerDuration(),
                instance.velocity()} {}

  void OnWorker(WorkerId worker, double time) override {
    ExpireBefore(time);
    const double velocity = instance().velocity();
    const Worker& w = instance().worker(worker);
    // Feasible tasks must have started within MaxTaskDuration of now
    // (their deadline constraint cannot reach further back) and lie within
    // the deadline predicate's reach; a superset — CanServe stays the
    // authority.
    const int64_t hit = waiting_tasks_.Nearest(
        w.location, FeasibleReach(w, time, limits_, options_.policy), time,
        StartWindow{time - limits_.max_task_duration, time},
        [&](int64_t id, double) {
          const Task& r = instance().task(static_cast<TaskId>(id));
          return CanServe(w, r, velocity, options_.policy);
        });
    if (hit >= 0) {
      assignment_.Add(w.id, static_cast<TaskId>(hit), time);
      waiting_tasks_.Erase(hit);
    } else {
      waiting_workers_.Insert(w.id, w.location, w.start, w.Deadline());
    }
  }

  void OnTask(TaskId task, double time) override {
    ExpireBefore(time);
    const double velocity = instance().velocity();
    const Task& r = instance().task(task);
    // Sr < Sw + Dw forces Sw > Sr - Dw >= Sr - MaxWorkerDuration.
    const double earliest = time - limits_.max_worker_duration;
    const int64_t hit = waiting_workers_.Nearest(
        r.location, FeasibleReach(r, earliest, limits_, options_.policy),
        time, StartWindow{earliest, time},
        [&](int64_t id, double) {
          const Worker& w = instance().worker(static_cast<WorkerId>(id));
          return CanServe(w, r, velocity, options_.policy);
        });
    if (hit >= 0) {
      assignment_.Add(static_cast<WorkerId>(hit), r.id, time);
      waiting_workers_.Erase(hit);
    } else {
      waiting_tasks_.Insert(r.id, r.location, r.start, r.Deadline());
    }
  }

 private:
  void ExpireBefore(double time) {
    waiting_workers_.ExpireBefore(time);
    waiting_tasks_.ExpireBefore(time);
  }

  SimpleGreedyOptions options_;
  EngineWaitingPool waiting_workers_;
  EngineWaitingPool waiting_tasks_;
  ReachLimits limits_;
};

/// Faithful variant: linear scan over all waiting counterparts. Expired or
/// matched entries are compacted away lazily during the scans.
class LinearGreedySession final : public AssignmentSessionBase {
 public:
  LinearGreedySession(const Instance& instance, SimpleGreedyOptions options)
      : AssignmentSessionBase(instance), options_(options) {}

  void OnWorker(WorkerId worker, double time) override {
    const double velocity = instance().velocity();
    const Worker& w = instance().worker(worker);
    double best_distance = std::numeric_limits<double>::infinity();
    int32_t best = -1;
    size_t write = 0;
    for (size_t i = 0; i < waiting_tasks_.size(); ++i) {
      const int32_t id = waiting_tasks_[i];
      const Task& r = instance().task(id);
      if (r.Deadline() < time) continue;  // Expired: drop.
      waiting_tasks_[write++] = id;
      if (!CanServe(w, r, velocity, options_.policy)) continue;
      const double d = Distance(w.location, r.location);
      if (d < best_distance || (d == best_distance && id < best)) {
        best_distance = d;
        best = id;
      }
    }
    waiting_tasks_.resize(write);
    if (best >= 0) {
      assignment_.Add(w.id, best, time);
      // Remove the matched task from the waiting list.
      for (size_t i = 0; i < waiting_tasks_.size(); ++i) {
        if (waiting_tasks_[i] == best) {
          waiting_tasks_[i] = waiting_tasks_.back();
          waiting_tasks_.pop_back();
          break;
        }
      }
    } else {
      waiting_workers_.push_back(w.id);
    }
  }

  void OnTask(TaskId task, double time) override {
    const double velocity = instance().velocity();
    const Task& r = instance().task(task);
    double best_distance = std::numeric_limits<double>::infinity();
    int32_t best = -1;
    size_t write = 0;
    for (size_t i = 0; i < waiting_workers_.size(); ++i) {
      const int32_t id = waiting_workers_[i];
      const Worker& w = instance().worker(id);
      if (w.Deadline() < time) continue;  // Left the platform.
      waiting_workers_[write++] = id;
      if (!CanServe(w, r, velocity, options_.policy)) continue;
      const double d = Distance(w.location, r.location);
      if (d < best_distance || (d == best_distance && id < best)) {
        best_distance = d;
        best = id;
      }
    }
    waiting_workers_.resize(write);
    if (best >= 0) {
      assignment_.Add(best, r.id, time);
      for (size_t i = 0; i < waiting_workers_.size(); ++i) {
        if (waiting_workers_[i] == best) {
          waiting_workers_[i] = waiting_workers_.back();
          waiting_workers_.pop_back();
          break;
        }
      }
    } else {
      waiting_tasks_.push_back(r.id);
    }
  }

 private:
  SimpleGreedyOptions options_;
  std::vector<int32_t> waiting_workers_;
  std::vector<int32_t> waiting_tasks_;
};

}  // namespace

SimpleGreedy::SimpleGreedy(SimpleGreedyOptions options) : options_(options) {}

std::unique_ptr<AssignmentSession> SimpleGreedy::StartSession(
    const Instance& instance) {
  if (options_.retrieval == RetrievalMode::kEngine) {
    return std::make_unique<EngineGreedySession>(instance, options_);
  }
  return std::make_unique<LinearGreedySession>(instance, options_);
}

}  // namespace ftoa
