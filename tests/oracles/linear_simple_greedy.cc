#include "oracles/linear_simple_greedy.h"

#include <limits>
#include <vector>

namespace ftoa {
namespace testing {

namespace {

/// Linear scan over all waiting counterparts. Expired or matched entries
/// are compacted away lazily during the scans.
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

std::unique_ptr<AssignmentSession> LinearSimpleGreedy::StartSession(
    const Instance& instance) {
  return std::make_unique<LinearGreedySession>(instance, options_);
}

}  // namespace testing
}  // namespace ftoa
