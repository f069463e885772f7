// Reference serving loop: what serve/service_harness commits, derived the
// slow way. It never evicts: every admitted object stays in one vector
// indexed by stream id. Each segment's carryover is rebuilt by scanning
// every earlier admitted object in stream-id order (unmatched, deadline
// after the segment start, a previous-day survivor re-timed to enter at the
// day boundary with its remaining patience), and the whole universe is
// sorted from scratch. The harness's persistent spine, its compaction and
// re-timing, and its expiry-driven frees must reproduce these pairs
// exactly.
//
// What the oracle takes from the harness's WindowMetrics rows instead of
// re-deriving: the publish schedule (a guide epoch change at window w
// publishes the guide solved for window w - guide_age_windows) and the
// ladder rung of each segment (degraded_greedy at its first window). Guides
// are re-solved from scratch (GuideRefreshMode::kCold) from the same
// prediction the harness used: the previous day's realized admissions, or
// the generator's history on day 0.
//
// Modeled: flash crowds, max_queue_depth shedding, drop-batch handoff
// faults (same seeded draws, same lanes), guide-fail faults (through the
// publish schedule), shards with or without reconciliation. Not modeled,
// and rejected with InvalidArgument: slo_p99_ms > 0 (latency-driven
// shedding), max_live_objects > 0, and refresh_predictor. Segments are cut
// at windows_per_segment, at day boundaries, and at the end of the rows, so
// the rows must come from a single RunWindows call.

#ifndef FTOA_TESTS_ORACLES_REFERENCE_SERVE_LOOP_H_
#define FTOA_TESTS_ORACLES_REFERENCE_SERVE_LOOP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "gen/config.h"
#include "gen/looped_trace.h"
#include "serve/service_harness.h"
#include "util/result.h"

namespace ftoa {
namespace testing {

/// Every committed pair as (worker stream id, task stream id), in segment
/// rotation order — the same order as ServiceHarness::matched_pairs().
/// A non-null `reconciled` receives, per window, the recovered_pairs of
/// the dispatcher whose segment rotated there (0 elsewhere).
Result<std::vector<std::pair<int64_t, int64_t>>> ReferenceServeLoop(
    const CityProfile& profile, const LoopedTraceSource::Options& trace,
    const ServiceOptions& options,
    const std::vector<WindowMetrics>& harness_windows,
    std::vector<int64_t>* reconciled = nullptr);

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_ORACLES_REFERENCE_SERVE_LOOP_H_
