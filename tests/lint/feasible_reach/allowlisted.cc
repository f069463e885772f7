// lint-fixture: path=src/core/fixture_allow.cc
#include "model/feasibility.h"

namespace ftoa {

double ReportedBound(double max_dr, double max_dw, double velocity) {
  // ftoa-lint: ok(feasible-reach): reported as a statistic, never used as a query radius
  return MaxFeasibleDistance(max_dr, max_dw, velocity);
}

}  // namespace ftoa
