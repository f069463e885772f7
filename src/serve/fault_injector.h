// FaultInjector: seeded, window-indexed fault activation for the serving
// harness's robustness drills (serve/service_harness). A fault plan is a
// comma-separated spec string, each entry
//
//   <name>@<begin>-<end>[:<key>=<value>]...
//
// activating one fault over the inclusive window range [begin, end]:
//
//   slow-shard   a shard's decisions stall (params: shard = shard index,
//                -1 = every shard, default -1; stall-ms = stall per
//                decision, default 5). Overlapping entries add up; the
//                combined stall of one shard in one window is at most
//                kMaxStallMs.
//   guide-fail   background guide refreshes fail (param: count = how many
//                attempts fail inside the range, default 1).
//   flash        flash crowd — arrival volume multiplies (param:
//                factor >= 1, default 3; the harness clones admitted
//                arrivals with seeded jitter). Overlapping entries
//                multiply; the combined factor of one window is at most
//                kMaxFlashFactor.
//   drop-batch   a staged handoff batch is dropped before it reaches the
//                shard (params: shard, default -1 = any; prob = drop
//                probability per batch from the seeded RNG, default 1).
//
// Example: "slow-shard@3-5:shard=1:stall-ms=40,guide-fail@4-6:count=2".
// Unknown fault names and unknown parameter keys are rejected with the
// valid set listed (same contract as the algorithm/router registries).
// Everything is deterministic in (spec, seed).

#ifndef FTOA_SERVE_FAULT_INJECTOR_H_
#define FTOA_SERVE_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/rng.h"

namespace ftoa {

/// One parsed fault activation.
struct FaultSpec {
  std::string name;
  int64_t begin_window = 0;  ///< First affected window (inclusive).
  int64_t end_window = 0;    ///< Last affected window (inclusive).
  int shard = -1;            ///< Target shard; -1 = all/any.
  double stall_ms = 5.0;     ///< slow-shard: per-decision stall.
  int64_t count = 1;         ///< guide-fail: failing attempts remaining.
  double factor = 3.0;       ///< flash: arrival multiplier.
  double prob = 1.0;         ///< drop-batch: per-batch drop probability.
};

/// Window-indexed fault oracle the harness consults at each decision
/// point. Default-constructed = no faults (every query benign).
class FaultInjector {
 public:
  /// Largest combined flash factor of any window: the harness clones a
  /// window's batch up to factor * base arrivals.
  static constexpr double kMaxFlashFactor = 100.0;
  /// Largest combined per-decision stall of one shard in one window (one
  /// minute); the harness adds it to a decision's latency in nanoseconds.
  static constexpr double kMaxStallMs = 60000.0;

  FaultInjector() = default;

  /// Parses a fault plan. The empty string yields a no-fault injector.
  /// A plan whose combined flash factor or stall exceeds its cap in some
  /// window is rejected with InvalidArgument.
  static Result<FaultInjector> Parse(const std::string& spec,
                                     uint64_t seed = 0);

  bool empty() const { return faults_.empty(); }
  const std::vector<FaultSpec>& faults() const { return faults_; }

  /// True when some fault acts per shard lane (slow-shard, drop-batch):
  /// only then does the harness need each event's lane.
  bool HasLaneFaults() const;

  /// Per-decision stall (ms) for `shard` in `window`; 0 when unaffected.
  /// Overlapping slow-shard entries add up.
  double SlowShardStallMs(int64_t window, int shard) const;

  /// Arrival-volume multiplier for `window` (1.0 = no flash crowd).
  /// Overlapping flash entries multiply.
  double FlashCrowdFactor(int64_t window) const;

  /// True when the guide refresh attempted in `window` must fail; consumes
  /// one unit of the matching entry's `count`.
  bool GuideRefreshShouldFail(int64_t window);

  /// True when a handoff batch bound for `shard` in `window` must be
  /// dropped (seeded draw against `prob`).
  bool ShouldDropHandoffBatch(int64_t window, int shard);

  /// Jitter source for flash-crowd clones (deterministic in seed).
  Rng& rng() { return rng_; }

  /// How often each fault actually fired (soak assertions read these).
  struct Counters {
    int64_t guide_failures = 0;
    int64_t dropped_batches = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  std::vector<FaultSpec> faults_;
  Rng rng_;
  Counters counters_;
};

}  // namespace ftoa

#endif  // FTOA_SERVE_FAULT_INJECTOR_H_
