#include "oracles/rebuild_gr_batch.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <vector>

#include "flow/hopcroft_karp.h"
#include "spatial/grid_index.h"

namespace ftoa {
namespace testing {

namespace {

/// An arrival buffered until its window's boundary passes.
struct PendingArrival {
  double time = 0.0;
  bool is_worker = false;
  int32_t id = -1;
};

/// Windowing skeleton of the rebuild session. Arrivals are buffered in
/// stream order; a window k (boundary = k * window) is processed once the
/// caller proves no earlier arrival can follow — by feeding an arrival
/// later than the boundary, calling AdvanceTo past it, or flushing. A
/// window absorbs every buffered arrival with time <= its boundary, so the
/// assignment is bit-identical to the batch replay that drained the whole
/// stream window by window.
class GrSessionBase : public AssignmentSessionBase {
 public:
  GrSessionBase(const Instance& instance, const GrBatchOptions& options)
      : AssignmentSessionBase(instance),
        options_(options),
        window_(options.window > 0.0
                    ? options.window
                    : 0.25 *
                          instance.spacetime().slots().slot_duration()),
        num_windows_(static_cast<int>(std::ceil(
                         (instance.spacetime().slots().horizon() +
                          instance.MaxTaskDuration()) /
                         window_)) +
                     1) {}

  void OnWorker(WorkerId worker, double time) override {
    CatchUpTo(time);
    pending_.push_back(PendingArrival{time, true, worker});
  }

  void OnTask(TaskId task, double time) override {
    CatchUpTo(time);
    pending_.push_back(PendingArrival{time, false, task});
  }

  void AdvanceTo(double time) override { CatchUpTo(time); }

  void Flush() override {
    while (next_window_ <= num_windows_) ProcessWindow(next_window_++);
  }

 protected:
  virtual void ProcessWindow(int k) = 0;

  /// Pops every buffered arrival with time <= `boundary`, in stream order.
  template <typename WorkerFn, typename TaskFn>
  void AbsorbUpTo(double boundary, WorkerFn&& on_worker, TaskFn&& on_task) {
    while (!pending_.empty() && pending_.front().time <= boundary) {
      const PendingArrival& arrival = pending_.front();
      if (arrival.is_worker) {
        on_worker(static_cast<WorkerId>(arrival.id));
      } else {
        on_task(static_cast<TaskId>(arrival.id));
      }
      pending_.pop_front();
    }
  }

  double boundary_of(int k) const { return k * window_; }

  GrBatchOptions options_;
  double window_;
  int num_windows_;
  int next_window_ = 1;

 private:
  /// Processes every window whose boundary lies strictly before `time`: an
  /// arrival at exactly a boundary still belongs to that window, so the
  /// window stays open until a strictly later timestamp is seen.
  void CatchUpTo(double time) {
    while (next_window_ <= num_windows_ &&
           boundary_of(next_window_) < time) {
      ProcessWindow(next_window_++);
    }
  }

  std::deque<PendingArrival> pending_;
};

// Rebuild-per-window session: re-enumerates every pooled worker's
// candidates and constructs a fresh Hopcroft-Karp instance at each window
// boundary.
class GrRebuildSession final : public GrSessionBase {
 public:
  GrRebuildSession(const Instance& instance, const GrBatchOptions& options)
      : GrSessionBase(instance, options),
        max_dr_(instance.MaxTaskDuration()),
        task_index_(instance.spacetime().grid()) {}

 protected:
  void ProcessWindow(int k) override {
    const double boundary = boundary_of(k);
    const double velocity = instance().velocity();

    // Absorb every arrival up to this boundary.
    AbsorbUpTo(
        boundary, [&](WorkerId id) { pool_workers_.push_back(id); },
        [&](TaskId id) {
          pool_tasks_.push_back(id);
          task_index_.Insert(id, instance().task(id).location);
        });

    // Evict expired objects.
    auto worker_dead = [&](WorkerId id) {
      return instance().worker(id).Deadline() <= boundary;
    };
    auto task_dead = [&](TaskId id) {
      // A task is hopeless once even a co-located worker departing now
      // would miss its deadline.
      return instance().task(id).Deadline() < boundary;
    };
    pool_workers_.erase(
        std::remove_if(pool_workers_.begin(), pool_workers_.end(),
                       worker_dead),
        pool_workers_.end());
    for (size_t i = 0; i < pool_tasks_.size();) {
      if (task_dead(pool_tasks_[i])) {
        task_index_.Erase(pool_tasks_[i]);
        pool_tasks_[i] = pool_tasks_.back();
        pool_tasks_.pop_back();
      } else {
        ++i;
      }
    }
    if (pool_workers_.empty() || pool_tasks_.empty()) return;

    // Build the batch bipartite graph. Workers depart at the boundary, so
    // an edge requires boundary + d <= Sr + Dr and Sr < Sw + Dw.
    std::unordered_map<int64_t, int32_t> task_slot;  // TaskId -> right index.
    std::vector<TaskId> right_tasks;
    // Hopcroft-Karp needs right-side cardinality up front; build edges
    // first.
    struct PendingEdge {
      int32_t left;
      TaskId task;
    };
    std::vector<PendingEdge> pending_edges;
    pending_edges.reserve(4 * pool_workers_.size());
    for (size_t wi = 0; wi < pool_workers_.size(); ++wi) {
      const Worker& w = instance().worker(pool_workers_[wi]);
      // Pool tasks arrived at or before the boundary, so the arrival
      // condition boundary + d/v <= Sr + Dr implies d <= max_dr * v.
      task_index_.ForEachInDisk(
          w.location, max_dr_ * velocity,
          [&](const IndexedPoint& entry, double d) {
            const Task& r = instance().task(static_cast<TaskId>(entry.id));
            if (!(r.start < w.Deadline())) return;
            if (options_.policy ==
                FeasibilityPolicy::kDispatchAtAssignmentTime) {
              // The batch decision is made at the boundary; the worker
              // departs then.
              if (boundary + d / velocity > r.Deadline()) return;
            } else if (!CanServe(w, r, velocity, options_.policy)) {
              return;
            }
            pending_edges.push_back(
                PendingEdge{static_cast<int32_t>(wi),
                            static_cast<TaskId>(entry.id)});
          });
    }
    if (pending_edges.empty()) return;
    for (const PendingEdge& edge : pending_edges) {
      if (task_slot.find(edge.task) == task_slot.end()) {
        task_slot[edge.task] = static_cast<int32_t>(right_tasks.size());
        right_tasks.push_back(edge.task);
      }
    }
    HopcroftKarp hk(static_cast<int32_t>(pool_workers_.size()),
                    static_cast<int32_t>(right_tasks.size()));
    hk.ReserveEdges(pending_edges.size());
    for (const PendingEdge& edge : pending_edges) {
      hk.AddEdge(edge.left, task_slot[edge.task]);
    }
    hk.Solve();

    // Commit the matched pairs and shrink the pools.
    std::vector<WorkerId> next_workers;
    next_workers.reserve(pool_workers_.size());
    for (size_t wi = 0; wi < pool_workers_.size(); ++wi) {
      const int32_t right = hk.MatchOfLeft(static_cast<int32_t>(wi));
      if (right >= 0) {
        const TaskId task = right_tasks[static_cast<size_t>(right)];
        assignment_.Add(pool_workers_[wi], task, boundary);
        task_index_.Erase(task);
      } else {
        next_workers.push_back(pool_workers_[wi]);
      }
    }
    pool_workers_.swap(next_workers);
    pool_tasks_.erase(
        std::remove_if(pool_tasks_.begin(), pool_tasks_.end(),
                       [&](TaskId id) {
                         return assignment_.IsTaskMatched(id);
                       }),
        pool_tasks_.end());
  }

 private:
  double max_dr_;
  // Unmatched objects alive on the platform, carried across windows. Tasks
  // are indexed spatially so per-worker candidate enumeration in a batch is
  // a disk query instead of a full cross product.
  std::vector<WorkerId> pool_workers_;
  std::vector<TaskId> pool_tasks_;
  GridIndex task_index_;
};

}  // namespace

std::unique_ptr<AssignmentSession> RebuildGrBatch::StartSession(
    const Instance& instance) {
  return std::make_unique<GrRebuildSession>(instance, options_);
}

}  // namespace testing
}  // namespace ftoa
