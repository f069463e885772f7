// lint-fixture: path=src/baselines/fixture_bad.cc
// A per-arrival query walking the global feasibility radius.
#include "model/feasibility.h"

namespace ftoa {

double QueryRadius(double max_dr, double max_dw, double velocity) {
  return MaxFeasibleDistance(max_dr, max_dw, velocity);  // lint-expect: feasible-reach
}

}  // namespace ftoa
