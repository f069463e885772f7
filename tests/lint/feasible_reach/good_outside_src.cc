// lint-fixture: path=tests/oracles/fixture_oracle.cc
// Test oracles keep the global radius on purpose: it is the reference the
// production reach is pinned against.
#include "model/feasibility.h"

namespace ftoa {

double OracleRadius(double max_dr, double max_dw, double velocity) {
  return MaxFeasibleDistance(max_dr, max_dw, velocity);
}

}  // namespace ftoa
