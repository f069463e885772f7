// The deadline constraint of Definition 4 under the two movement semantics
// discussed in DESIGN.md Section 2:
//
//  * kDispatchAtWorkerStart — the paper's written predicate. The worker is
//    credited with moving toward the task from its own start time Sw (it may
//    have been dispatched in advance by the offline guide):
//        Sr < Sw + Dw   and   Dr - (Sw - Sr) - d(Lw, Lr) >= 0.
//    Used by guide-based algorithms (POLAR family) and offline OPT.
//
//  * kDispatchAtAssignmentTime — wait-in-place semantics of the prior online
//    models: the worker only starts traveling when the match is decided, at
//    time max(Sw, Sr), so the arrival condition tightens to
//        max(Sw, Sr) + d(Lw, Lr) <= Sr + Dr,   and   Sr < Sw + Dw.
//    Used by SimpleGreedy and GR.

#ifndef FTOA_MODEL_FEASIBILITY_H_
#define FTOA_MODEL_FEASIBILITY_H_

#include "model/task.h"
#include "model/worker.h"
#include "spatial/point.h"

namespace ftoa {

/// Which movement semantics the deadline predicate assumes.
enum class FeasibilityPolicy {
  kDispatchAtWorkerStart,
  kDispatchAtAssignmentTime,
};

/// Travel time between two locations at the given speed (Definition 3).
/// Requires velocity > 0.
inline double TravelTime(Point from, Point to, double velocity) {
  return Distance(from, to) / velocity;
}

/// True iff worker `w` can serve task `r` under `policy`.
bool CanServe(const Worker& w, const Task& r, double velocity,
              FeasibilityPolicy policy);

/// The paper's predicate evaluated on raw attributes; shared by the
/// object-level and the guide's type-representative-level edge tests.
bool CanServeAttrs(Point worker_loc, double worker_start,
                   double worker_duration, Point task_loc, double task_start,
                   double task_duration, double velocity,
                   FeasibilityPolicy policy);

/// Upper bound on the distance between any feasible (w, r) pair given the
/// maximum task/worker durations. Conservative for both policies, and loose
/// for both: candidate queries take their radius from FeasibleReach, which
/// caps itself at this bound.
inline double MaxFeasibleDistance(double max_task_duration,
                                  double max_worker_duration,
                                  double velocity) {
  return (max_task_duration + max_worker_duration) * velocity;
}

/// Instance-wide inputs of FeasibleReach.
struct ReachLimits {
  double max_task_duration = 0.0;
  double max_worker_duration = 0.0;
  double velocity = 1.0;
};

/// FeasibleReach's rounding margin, relative to v * (|S| + maxDr + maxDw)
/// with S the arriving object's start. For any pair CanServe accepts, every
/// operand of the predicate is at most |S| + maxDr + maxDw in magnitude, so
/// its rounding error is a few ulps of that scale; 1e-9 covers it with
/// over six orders of magnitude to spare.
inline constexpr double kReachMargin = 1e-9;

/// The query radius for an arriving worker `w` whose candidate tasks
/// started no later than `latest_task_start`: the largest distance at which
/// CanServe can accept such a pair under `policy`.
///   kDispatchAtAssignmentTime:  v * maxDr
///       (the worker departs at max(Sw, Sr) >= Sr, so d / v <= Dr)
///   kDispatchAtWorkerStart:     v * (maxDr + latest_task_start - Sw)
///       (Definition 4's d / v <= Dr + Sr - Sw)
/// Capped at MaxFeasibleDistance, floored at 0, then widened by
/// kReachMargin so that rounding inside CanServe never accepts a pair
/// beyond it (pinned by tests/model/feasibility_test.cc).
double FeasibleReach(const Worker& w, double latest_task_start,
                     const ReachLimits& limits, FeasibilityPolicy policy);

/// The query radius for an arriving task `r` whose candidate workers
/// started no earlier than `earliest_worker_start`:
///   kDispatchAtAssignmentTime:  v * Dr
///   kDispatchAtWorkerStart:     v * (Dr + Sr - earliest_worker_start)
/// with the same cap, floor and margin.
double FeasibleReach(const Task& r, double earliest_worker_start,
                     const ReachLimits& limits, FeasibilityPolicy policy);

}  // namespace ftoa

#endif  // FTOA_MODEL_FEASIBILITY_H_
