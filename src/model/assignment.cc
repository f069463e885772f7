#include "model/assignment.h"

#include <algorithm>

namespace ftoa {

Assignment::Assignment(size_t num_workers, size_t num_tasks)
    : worker_match_(num_workers, -1), task_match_(num_tasks, -1) {
  // A matching has at most min(|W|, |R|) pairs: reserving them once keeps
  // Add, and so every online decision, free of heap allocation.
  pairs_.reserve(std::min(num_workers, num_tasks));
}

Status Assignment::Add(WorkerId worker, TaskId task, double time) {
  if (worker < 0 || static_cast<size_t>(worker) >= worker_match_.size()) {
    return Status::OutOfRange("Assignment: worker id out of range");
  }
  if (task < 0 || static_cast<size_t>(task) >= task_match_.size()) {
    return Status::OutOfRange("Assignment: task id out of range");
  }
  if (worker_match_[static_cast<size_t>(worker)] >= 0) {
    return Status::FailedPrecondition("Assignment: worker already matched");
  }
  if (task_match_[static_cast<size_t>(task)] >= 0) {
    return Status::FailedPrecondition("Assignment: task already matched");
  }
  worker_match_[static_cast<size_t>(worker)] = task;
  task_match_[static_cast<size_t>(task)] = worker;
  pairs_.push_back(MatchedPair{worker, task, time});
  return Status::OK();
}

Status Assignment::Validate(const Instance& instance,
                            FeasibilityPolicy policy) const {
  if (worker_match_.size() != instance.num_workers() ||
      task_match_.size() != instance.num_tasks()) {
    return Status::InvalidArgument(
        "Assignment: size does not match the instance");
  }
  for (const MatchedPair& pair : pairs_) {
    const Worker& w = instance.worker(pair.worker);
    const Task& r = instance.task(pair.task);
    if (!CanServe(w, r, instance.velocity(), policy)) {
      return Status::FailedPrecondition(
          "Assignment: pair (" + std::to_string(pair.worker) + ", " +
          std::to_string(pair.task) + ") violates the deadline constraint");
    }
  }
  return Status::OK();
}

}  // namespace ftoa
