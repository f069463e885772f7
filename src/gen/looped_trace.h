// LoopedTraceSource: the unbounded arrival stream behind the serving
// harness (serve/service_harness). A finite multi-day city trace
// (gen/city_trace) is replayed day after day on an absolute time axis —
// stream day d maps to source day d % loop_days, its day-relative arrival
// times shifted by d * day_horizon — so a soak can run for an arbitrary
// number of simulated days from a fixed seed, optionally scaled up or down
// without touching the city's spatial shape. For finite-equivalence tests
// the same days can be materialized as one long Instance whose replay is
// the ground truth an evicting harness must reproduce bit for bit.

#ifndef FTOA_GEN_LOOPED_TRACE_H_
#define FTOA_GEN_LOOPED_TRACE_H_

#include <cstdint>
#include <vector>

#include "gen/city_trace.h"
#include "gen/config.h"
#include "model/arrival_stream.h"
#include "model/instance.h"
#include "spatial/point.h"
#include "util/result.h"

namespace ftoa {

/// One arrival of the unbounded stream. Unlike ArrivalEvent — an index
/// into a fixed Instance universe — a StreamArrival is self-contained:
/// the harness builds its own per-segment universes from these.
struct StreamArrival {
  ObjectKind kind = ObjectKind::kWorker;
  double time = 0.0;      ///< Absolute stream time (day * day_horizon + Sw/Sr).
  Point location;         ///< Initial location within the city region.
  double duration = 0.0;  ///< Dw (workers) or Dr (tasks).
  int32_t source_id = -1; ///< Object id within the source day's instance.
  int64_t day = 0;        ///< Absolute stream day the arrival belongs to.

  /// Last time the object can still participate in a match.
  double Deadline() const { return time + duration; }
};

/// The session arrival contract's order on stream arrivals: nondecreasing
/// time; at equal times workers before tasks, then lower source id
/// (BuildArrivalStream's order).
inline bool ArrivesBefore(const StreamArrival& a, const StreamArrival& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.kind != b.kind) return a.kind == ObjectKind::kWorker;
  return a.source_id < b.source_id;
}

/// Deterministic unbounded replay of a city trace.
class LoopedTraceSource {
 public:
  struct Options {
    /// Days replayed cyclically; 0 = the profile's full history_days.
    /// Clamped to [1, profile.history_days].
    int loop_days = 0;
    /// Multiplier on both sides' per-day object counts (soak scaling;
    /// applied to the profile before the generator is built, so spatial
    /// and temporal shape are unchanged). Must be finite and positive,
    /// and must keep each side's day within kMaxObjectsPerDay; see
    /// CheckOptions.
    double scale = 1.0;
  };

  /// Most expected objects of one side per scaled stream day (workers x
  /// supply_surplus, or tasks, times the scale). A day's objects take
  /// int32 ids; the 8x margin under INT32_MAX covers the Poisson draw's
  /// spread and both sides of a segment together.
  static constexpr double kMaxObjectsPerDay = 1 << 28;

  /// InvalidArgument unless `options.scale` is finite and positive and
  /// keeps both sides of `profile` within kMaxObjectsPerDay. Callers that
  /// take the scale from outside input check it before building a source:
  /// the constructor leaves the counts unscaled for a nonpositive or NaN
  /// scale, and an oversized one exhausts memory or the id space.
  static Status CheckOptions(const CityProfile& profile,
                             const Options& options);

  explicit LoopedTraceSource(CityProfile profile);
  LoopedTraceSource(CityProfile profile, Options options);

  const CityTraceGenerator& generator() const { return generator_; }
  int loop_days() const { return loop_days_; }

  /// Duration of one stream day (== slots_per_day; one slot = one unit).
  double day_horizon() const;

  /// The (slot x cell) type space of any single day.
  SpacetimeSpec DaySpacetime() const { return generator_.DaySpacetime(); }

  /// Arrivals of absolute stream day `day` (any day >= 0), on the absolute
  /// time axis, sorted by ArrivesBefore.
  Result<std::vector<StreamArrival>> ArrivalsForDay(int64_t day) const;

  /// ArrivalsForDay into a caller-owned buffer: `*out` is overwritten with
  /// the day's arrivals and keeps its capacity, so a caller that refills
  /// one buffer every day stops reallocating it. Const and free of shared
  /// mutable state, so it may run on another thread while the caller reads
  /// the source. On error `*out` is left unspecified.
  Status FillArrivalsForDay(int64_t day, std::vector<StreamArrival>* out) const;

  /// The first `num_days` stream days concatenated into one Instance over
  /// an extended horizon (num_days * slots_per_day slots, same grid) —
  /// the finite ground truth for harness-equivalence tests. Object ids
  /// are assigned in (day, source id) order per side.
  Result<Instance> FiniteInstance(int num_days) const;

 private:
  CityTraceGenerator generator_;
  int loop_days_ = 1;
};

}  // namespace ftoa

#endif  // FTOA_GEN_LOOPED_TRACE_H_
