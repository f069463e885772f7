#include "model/feasibility.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "test_util.h"
#include "util/rng.h"

namespace ftoa {
namespace {

Worker MakeWorker(Point loc, double start, double duration) {
  return Worker{0, loc, start, duration};
}

Task MakeTask(Point loc, double start, double duration) {
  return Task{0, loc, start, duration};
}

TEST(TravelTimeTest, ScalesWithVelocity) {
  EXPECT_DOUBLE_EQ(TravelTime({0.0, 0.0}, {3.0, 4.0}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(TravelTime({0.0, 0.0}, {3.0, 4.0}, 2.5), 2.0);
}

TEST(FeasibilityTest, Condition1TaskMustAppearBeforeWorkerLeaves) {
  const Worker w = MakeWorker({0.0, 0.0}, 0.0, 5.0);
  // Task released exactly at the worker deadline: Sr < Sw + Dw is strict.
  const Task late = MakeTask({0.0, 0.0}, 5.0, 10.0);
  EXPECT_FALSE(CanServe(w, late, 1.0,
                        FeasibilityPolicy::kDispatchAtWorkerStart));
  const Task ok = MakeTask({0.0, 0.0}, 4.999, 10.0);
  EXPECT_TRUE(CanServe(w, ok, 1.0,
                       FeasibilityPolicy::kDispatchAtWorkerStart));
}

TEST(FeasibilityTest, PaperFormulaWorkerAfterTask) {
  // Sw > Sr: Dr - (Sw - Sr) - d >= 0.
  const Task r = MakeTask({0.0, 0.0}, 0.0, 5.0);
  const Worker near = MakeWorker({3.0, 0.0}, 1.0, 10.0);
  // 5 - 1 - 3 = 1 >= 0.
  EXPECT_TRUE(CanServe(near, r, 1.0,
                       FeasibilityPolicy::kDispatchAtWorkerStart));
  const Worker far = MakeWorker({5.0, 0.0}, 1.0, 10.0);
  // 5 - 1 - 5 = -1 < 0.
  EXPECT_FALSE(CanServe(far, r, 1.0,
                        FeasibilityPolicy::kDispatchAtWorkerStart));
}

TEST(FeasibilityTest, WorkerStartPolicyCreditsPreMovement) {
  // Worker appears before the task; Definition 4 credits travel from Sw.
  const Worker w = MakeWorker({0.0, 0.0}, 0.0, 10.0);
  const Task r = MakeTask({4.0, 0.0}, 3.0, 2.0);
  // Dr - (Sw - Sr) - d = 2 + 3 - 4 = 1 >= 0.
  EXPECT_TRUE(CanServe(w, r, 1.0,
                       FeasibilityPolicy::kDispatchAtWorkerStart));
  // Wait-in-place: departs at Sr = 3, arrives 7 > deadline 5.
  EXPECT_FALSE(CanServe(w, r, 1.0,
                        FeasibilityPolicy::kDispatchAtAssignmentTime));
}

TEST(FeasibilityTest, PoliciesAgreeWhenWorkerArrivesSecond) {
  // Sw >= Sr: departure time is Sw under both policies.
  const Task r = MakeTask({0.0, 0.0}, 0.0, 6.0);
  const Worker w = MakeWorker({4.0, 0.0}, 2.0, 10.0);
  EXPECT_TRUE(CanServe(w, r, 1.0,
                       FeasibilityPolicy::kDispatchAtWorkerStart));
  EXPECT_TRUE(CanServe(w, r, 1.0,
                       FeasibilityPolicy::kDispatchAtAssignmentTime));
  const Worker too_far = MakeWorker({5.0, 0.0}, 2.0, 10.0);
  EXPECT_FALSE(CanServe(too_far, r, 1.0,
                        FeasibilityPolicy::kDispatchAtWorkerStart));
  EXPECT_FALSE(CanServe(too_far, r, 1.0,
                        FeasibilityPolicy::kDispatchAtAssignmentTime));
}

TEST(FeasibilityTest, WorkerStartNeverStricterThanAssignmentTime) {
  // Property on a small grid of parameter combinations: the worker-start
  // policy dominates (any assignment-time-feasible pair is worker-start
  // feasible).
  for (double sw : {0.0, 1.0, 3.0}) {
    for (double sr : {0.0, 2.0, 4.0}) {
      for (double d : {0.5, 2.0, 5.0}) {
        for (double dr : {1.0, 3.0}) {
          const Worker w = MakeWorker({0.0, 0.0}, sw, 6.0);
          const Task r = MakeTask({d, 0.0}, sr, dr);
          const bool at_assignment = CanServe(
              w, r, 1.0, FeasibilityPolicy::kDispatchAtAssignmentTime);
          const bool at_start = CanServe(
              w, r, 1.0, FeasibilityPolicy::kDispatchAtWorkerStart);
          if (at_assignment) {
            EXPECT_TRUE(at_start);
          }
        }
      }
    }
  }
}

TEST(FeasibilityTest, VelocityScalesReach) {
  const Task r = MakeTask({10.0, 0.0}, 0.0, 2.0);
  const Worker w = MakeWorker({0.0, 0.0}, 0.0, 5.0);
  EXPECT_FALSE(
      CanServe(w, r, 1.0, FeasibilityPolicy::kDispatchAtWorkerStart));
  EXPECT_TRUE(
      CanServe(w, r, 5.0, FeasibilityPolicy::kDispatchAtWorkerStart));
}

TEST(FeasibilityTest, Example1Pairs) {
  // Checks Definition 4 on the paper's running example (see DESIGN.md):
  // the offline-optimal matching of Figure 1c is feasible.
  const Instance instance = ftoa::testing::MakeExample1Instance();
  const auto policy = FeasibilityPolicy::kDispatchAtWorkerStart;
  const double v = instance.velocity();
  // w1 -> r1, w3 -> r2, w4 -> r3, w5 -> r4, w6 -> r5, w7 -> r6.
  EXPECT_TRUE(CanServe(instance.worker(0), instance.task(0), v, policy));
  EXPECT_TRUE(CanServe(instance.worker(2), instance.task(1), v, policy));
  EXPECT_TRUE(CanServe(instance.worker(3), instance.task(2), v, policy));
  EXPECT_TRUE(CanServe(instance.worker(4), instance.task(3), v, policy));
  EXPECT_TRUE(CanServe(instance.worker(5), instance.task(4), v, policy));
  EXPECT_TRUE(CanServe(instance.worker(6), instance.task(5), v, policy));
  // w2 cannot serve r2 (5 - (1-2) - sqrt(10) < 0 is false: check).
  EXPECT_FALSE(CanServe(instance.worker(1), instance.task(1), v, policy));
}

TEST(FeasibilityTest, MaxFeasibleDistanceBound) {
  // No feasible pair may be farther apart than the bound.
  const double bound = MaxFeasibleDistance(2.0, 3.0, 1.5);
  EXPECT_DOUBLE_EQ(bound, 7.5);
  const Worker w = MakeWorker({0.0, 0.0}, 0.0, 3.0);
  const Task r = MakeTask({bound + 0.1, 0.0}, 2.9, 2.0);
  EXPECT_FALSE(
      CanServe(w, r, 1.5, FeasibilityPolicy::kDispatchAtWorkerStart));
}

// ------------------------------------------------------------ FeasibleReach --

constexpr FeasibilityPolicy kPolicies[] = {
    FeasibilityPolicy::kDispatchAtAssignmentTime,
    FeasibilityPolicy::kDispatchAtWorkerStart};

/// FeasibleReach's widening for an arrival starting at `start`.
double Margin(double start, const ReachLimits& limits) {
  return kReachMargin * limits.velocity *
         (std::abs(start) + limits.max_task_duration +
          limits.max_worker_duration);
}

TEST(FeasibleReachTest, MatchesTheClosedFormTable) {
  // The city profile: v = 2, Dr = 1, Dw = 2, so MaxFeasibleDistance = 6.
  const ReachLimits limits{1.0, 2.0, 2.0};
  const auto assign = FeasibilityPolicy::kDispatchAtAssignmentTime;
  const auto start = FeasibilityPolicy::kDispatchAtWorkerStart;
  const Worker w = MakeWorker({0.0, 0.0}, 10.0, 2.0);
  const double wm = Margin(10.0, limits);
  // Arriving worker: v * maxDr, or v * (maxDr + hi - Sw) capped at 6.
  EXPECT_DOUBLE_EQ(FeasibleReach(w, 10.0, limits, assign), 2.0 + wm);
  EXPECT_DOUBLE_EQ(FeasibleReach(w, 30.0, limits, assign), 2.0 + wm);
  EXPECT_DOUBLE_EQ(FeasibleReach(w, 10.0, limits, start), 2.0 + wm);
  EXPECT_DOUBLE_EQ(FeasibleReach(w, 11.0, limits, start), 4.0 + wm);
  EXPECT_DOUBLE_EQ(FeasibleReach(w, 30.0, limits, start), 6.0 + wm);
  EXPECT_DOUBLE_EQ(
      FeasibleReach(w, std::numeric_limits<double>::infinity(), limits,
                    start),
      6.0 + wm);
  // Tasks that all started too early for the worker: floored at 0.
  EXPECT_DOUBLE_EQ(FeasibleReach(w, 8.0, limits, start), wm);

  // Arriving task: v * Dr (its own), or v * (Dr + Sr - lo) capped at 6.
  const Task r = MakeTask({0.0, 0.0}, 10.0, 0.5);
  const double rm = Margin(10.0, limits);
  EXPECT_DOUBLE_EQ(FeasibleReach(r, 8.0, limits, assign), 1.0 + rm);
  EXPECT_DOUBLE_EQ(FeasibleReach(r, 10.0, limits, start), 1.0 + rm);
  EXPECT_DOUBLE_EQ(FeasibleReach(r, 9.0, limits, start), 3.0 + rm);
  EXPECT_DOUBLE_EQ(FeasibleReach(r, 8.0, limits, start), 5.0 + rm);
  EXPECT_DOUBLE_EQ(
      FeasibleReach(r, -std::numeric_limits<double>::infinity(), limits,
                    start),
      6.0 + rm);
  EXPECT_DOUBLE_EQ(FeasibleReach(r, 11.0, limits, start), rm);
  // The margin is negligible against a cell: under a millionth of one
  // here, under a hundredth even at a start of 1e6.
  EXPECT_LT(Margin(1e6, limits), 1e-2);
  EXPECT_LT(wm, 1e-6);
}

/// The distance at which (w, r) sits exactly on the deadline predicate's
/// edge, in exact arithmetic (negative: infeasible at any distance).
double EdgeDistance(const Worker& w, const Task& r, double velocity,
                    FeasibilityPolicy policy) {
  const double depart = policy == FeasibilityPolicy::kDispatchAtWorkerStart
                            ? w.start
                            : std::max(w.start, r.start);
  return velocity * (r.start + r.duration - depart);
}

TEST(FeasibleReachTest, CanServeImpliesWithinReachOnRandomPairs) {
  // Random pairs with mixed durations, speeds and start scales, placed on,
  // just inside and just outside the predicate's edge, where rounding
  // decides. Each query uses the tightest window that still admits the
  // counterpart (the reach only grows with the window).
  Rng rng(20261017);
  int feasible = 0;
  int past_edge = 0;  // Accepted beyond the exact edge: rounding at work.
  for (int trial = 0; trial < 20000; ++trial) {
    const ReachLimits limits{rng.NextDouble(0.5, 3.0),
                             rng.NextDouble(0.5, 3.0),
                             rng.NextDouble(0.2, 4.0)};
    const double scale = trial % 2 == 0 ? 100.0 : 1e6;
    const double sw = rng.NextDouble(0.0, scale);
    const double dw = rng.NextDouble(0.01, limits.max_worker_duration);
    const double dr = rng.NextDouble(0.01, limits.max_task_duration);
    const double sr =
        sw + rng.NextDouble(-limits.max_task_duration, dw);
    const Worker w = MakeWorker({rng.NextDouble(0.0, 50.0),
                                 rng.NextDouble(0.0, 50.0)},
                                sw, dw);
    for (const FeasibilityPolicy policy : kPolicies) {
      const double edge = EdgeDistance(
          w, MakeTask(w.location, sr, dr), limits.velocity, policy);
      if (edge <= 0.0) continue;
      double d = edge;
      switch (rng.NextBounded(5)) {
        case 0: d = edge * rng.NextDouble(); break;
        case 1: d = std::nextafter(edge, 0.0); break;
        case 2: break;
        case 3: d = std::nextafter(edge, 2.0 * edge); break;
        default: d = edge * (1.0 + 1e-15 * rng.NextDouble(0.0, 8.0));
      }
      const double angle = rng.NextDouble(0.0, 6.283185307179586);
      const Task r = MakeTask({w.location.x + d * std::cos(angle),
                               w.location.y + d * std::sin(angle)},
                              sr, dr);
      if (!CanServe(w, r, limits.velocity, policy)) continue;
      ++feasible;
      const double distance = Distance(w.location, r.location);
      if (distance > EdgeDistance(w, r, limits.velocity, policy)) {
        ++past_edge;
      }
      const std::string label = "trial " + std::to_string(trial) +
                                (policy == kPolicies[0] ? " assign"
                                                        : " start");
      EXPECT_LE(distance, FeasibleReach(w, r.start, limits, policy))
          << label << " arriving worker";
      EXPECT_LE(distance, FeasibleReach(r, w.start, limits, policy))
          << label << " arriving task";
    }
  }
  EXPECT_GT(feasible, 10000);
  EXPECT_GT(past_edge, 100);
}

TEST(FeasibleReachTest, ExactBoundaryPairsPinTheRoundingMargin) {
  // Pairs on the edge of the predicate and one ulp either side. CanServe
  // rounds, so it accepts some pairs one ulp past the exact reach; the
  // margin must cover them, and must stay within its stated size.
  const ReachLimits limits{1.2008841476388106, 2.0, 3.0};
  int accepted_past_edge = 0;
  for (const double start : {0.3, 47.224524357611664, 123456.789}) {
    for (const FeasibilityPolicy policy : kPolicies) {
      // Worker and task start together, each with the largest duration,
      // so both arriving kinds' reach is exactly v * Dr.
      const Worker w = MakeWorker({0.0, 0.0}, start,
                                  limits.max_worker_duration);
      const double edge = limits.velocity * limits.max_task_duration;
      for (const double x : {std::nextafter(edge, 0.0), edge,
                             std::nextafter(edge, 2.0 * edge)}) {
        const Task r = MakeTask({x, 0.0}, start, limits.max_task_duration);
        const double distance = Distance(w.location, r.location);
        ASSERT_EQ(distance, x);
        const bool ok = CanServe(w, r, limits.velocity, policy);
        if (x < edge) {
          EXPECT_TRUE(ok) << start;
        }
        if (!ok) continue;
        if (x > edge) ++accepted_past_edge;
        for (const double reach :
             {FeasibleReach(w, start, limits, policy),
              FeasibleReach(r, start, limits, policy)}) {
          EXPECT_LE(distance, reach) << start;
          EXPECT_LE(reach, edge + Margin(start, limits) * (1.0 + 1e-12))
              << start;
        }
      }
    }
  }
  EXPECT_GT(accepted_past_edge, 0);
}

}  // namespace
}  // namespace ftoa
