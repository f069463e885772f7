// Reference boundary reconciler: the serial pass sim/boundary_reconciler
// shipped before candidate discovery learned to skip own-shard cells, to
// scan only a guided worker's guide-capacity cells, and to fan out across
// a lent pool. One caller thread, one cursor, every cell of the
// feasibility disk walked, the shard and capacity checks applied per
// entry. The production pass must reproduce its assignment and its
// recovery and capacity counts exactly; only the boundary sizes and the
// retrieval counters may shrink (skipped cells are neither visited nor
// examined).

#ifndef FTOA_TESTS_ORACLES_SERIAL_BOUNDARY_RECONCILER_H_
#define FTOA_TESTS_ORACLES_SERIAL_BOUNDARY_RECONCILER_H_

#include "model/assignment.h"
#include "model/instance.h"
#include "sim/boundary_reconciler.h"
#include "sim/shard_router.h"
#include "util/result.h"

namespace ftoa {
namespace testing {

/// Same contract as ReconcileShardBoundary; `options.pool` is ignored.
Result<ReconcileStats> SerialReconcileShardBoundary(
    const Instance& instance, const ShardRouter& router,
    const ReconcileOptions& options, Assignment* assignment);

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_ORACLES_SERIAL_BOUNDARY_RECONCILER_H_
