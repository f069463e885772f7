// lint-fixture: path=src/sim/fixture_bad.cc
// The scope is all of src/ but src/model, so the reconciler is covered.
#include "model/feasibility.h"

namespace ftoa {

double BoundaryRadius(double max_dr, double max_dw, double velocity) {
  const double radius =
      MaxFeasibleDistance (max_dr, max_dw, velocity);  // lint-expect: feasible-reach
  return radius;
}

}  // namespace ftoa
