// lint-fixture: path=src/model/fixture_model.cc
// src/model owns the global bound: FeasibleReach caps itself with it.
#include "model/feasibility.h"

namespace ftoa {

double Cap(const ReachLimits& limits) {
  return MaxFeasibleDistance(limits.max_task_duration,
                             limits.max_worker_duration, limits.velocity);
}

}  // namespace ftoa
