#include "model/feasibility.h"

#include <algorithm>
#include <cmath>

namespace ftoa {

bool CanServeAttrs(Point worker_loc, double worker_start,
                   double worker_duration, Point task_loc, double task_start,
                   double task_duration, double velocity,
                   FeasibilityPolicy policy) {
  // Deadline condition (1): the task appears before the worker leaves.
  if (!(task_start < worker_start + worker_duration)) return false;

  const double travel = TravelTime(worker_loc, task_loc, velocity);
  switch (policy) {
    case FeasibilityPolicy::kDispatchAtWorkerStart:
      // Deadline condition (2), exactly as written in Definition 4:
      // Dr - (Sw - Sr) - d(Lw, Lr) >= 0.
      return task_duration - (worker_start - task_start) - travel >= 0.0;
    case FeasibilityPolicy::kDispatchAtAssignmentTime: {
      const double depart = std::max(worker_start, task_start);
      return depart + travel <= task_start + task_duration;
    }
  }
  return false;
}

bool CanServe(const Worker& w, const Task& r, double velocity,
              FeasibilityPolicy policy) {
  return CanServeAttrs(w.location, w.start, w.duration, r.location, r.start,
                       r.duration, velocity, policy);
}

namespace {

/// Floors and caps the exact reach `travel * v`, then widens it by the
/// rounding margin at the scale of an arrival starting at `start`.
double WidenedReach(double travel, double start, const ReachLimits& limits) {
  const double exact = std::clamp(
      travel * limits.velocity, 0.0,
      MaxFeasibleDistance(limits.max_task_duration,
                          limits.max_worker_duration, limits.velocity));
  return exact + kReachMargin * limits.velocity *
                     (std::abs(start) + limits.max_task_duration +
                      limits.max_worker_duration);
}

}  // namespace

double FeasibleReach(const Worker& w, double latest_task_start,
                     const ReachLimits& limits, FeasibilityPolicy policy) {
  const double travel =
      policy == FeasibilityPolicy::kDispatchAtAssignmentTime
          ? limits.max_task_duration
          : limits.max_task_duration + (latest_task_start - w.start);
  return WidenedReach(travel, w.start, limits);
}

double FeasibleReach(const Task& r, double earliest_worker_start,
                     const ReachLimits& limits, FeasibilityPolicy policy) {
  const double travel =
      policy == FeasibilityPolicy::kDispatchAtAssignmentTime
          ? r.duration
          : r.duration + (r.start - earliest_worker_start);
  return WidenedReach(travel, r.start, limits);
}

}  // namespace ftoa
