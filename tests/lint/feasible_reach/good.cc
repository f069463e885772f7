// lint-fixture: path=src/baselines/fixture_good.cc
// The radius comes from FeasibleReach; naming the global bound in a
// comment (MaxFeasibleDistance(...)) does not fire.
#include "model/feasibility.h"

namespace ftoa {

double QueryRadius(const Worker& w, double time, const ReachLimits& limits,
                   FeasibilityPolicy policy) {
  return FeasibleReach(w, time, limits, policy);
}

}  // namespace ftoa
