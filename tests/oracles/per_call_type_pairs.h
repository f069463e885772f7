// Reference pair enumeration: GuideGenerator::FeasibleTypePairs as it ran
// before the generator cached the geometric candidates per spacetime
// geometry. Every call re-runs the representative deadline and distance
// test, scanning per (worker type, task slot) the smaller of the
// feasibility disk's bounding box and the slot's nonempty task cells. The
// cached enumeration must return the same pairs in the same order.

#ifndef FTOA_TESTS_ORACLES_PER_CALL_TYPE_PAIRS_H_
#define FTOA_TESTS_ORACLES_PER_CALL_TYPE_PAIRS_H_

#include <vector>

#include "core/guide_generator.h"
#include "core/prediction_matrix.h"

namespace ftoa {
namespace testing {

/// Every feasible (worker type, task type) pair of `prediction` with both
/// predicted counts nonzero, in worker slot, worker cell, task slot, task
/// cell order.
std::vector<TypePairEdge> PerCallTypePairs(const PredictionMatrix& prediction,
                                           double velocity,
                                           const GuideOptions& options);

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_ORACLES_PER_CALL_TYPE_PAIRS_H_
