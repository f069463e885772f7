// Reference waiting pool: the direct GridIndex scans the per-arrival
// sessions ran before every candidate search moved onto the retrieval
// engine (retrieval/waiting_pool.h's EngineWaitingPool). It has the same
// interface, but its queries ignore the time attributes: the caller's
// feasibility filter is the only pruning beyond the search radius, and
// ExpireBefore keeps expired entries for that filter to reject. Nearest
// answers in the canonical (distance, id) order, like the engine; disk and
// id enumeration order is the grid's, so callers sort what they collect.
// The oracles rebuild_tgoa and vector_queue_polar_op run on it, which pins
// the engine-backed production sessions against an index with no pruning
// of its own.

#ifndef FTOA_TESTS_ORACLES_GRID_WAITING_POOL_H_
#define FTOA_TESTS_ORACLES_GRID_WAITING_POOL_H_

#include <cstdint>
#include <limits>

#include "retrieval/candidate_engine.h"
#include "spatial/grid_index.h"

namespace ftoa {
namespace testing {

/// A GridIndex keyed by object id and location.
class GridWaitingPool {
 public:
  GridWaitingPool(const GridSpec& grid, RetrievalStats* stats)
      : index_(grid) {
    (void)stats;  // The reference path is deliberately uninstrumented.
  }

  void Insert(int64_t id, Point location, double start, double deadline) {
    (void)start;
    (void)deadline;
    index_.Insert(id, location);
  }
  bool Erase(int64_t id) { return index_.Erase(id); }
  bool Contains(int64_t id) const { return index_.Contains(id); }
  size_t size() const { return index_.size(); }
  void ExpireBefore(double now) { (void)now; }

  /// Nearest entry within `max_distance` passing `filter(id, distance)`,
  /// or -1. Canonical (distance, id) tie-break.
  template <typename FilterFn>
  int64_t Nearest(Point origin, double max_distance, double query_time,
                  StartWindow window, FilterFn&& filter) const {
    (void)query_time;
    (void)window;
    const IndexedPoint hit = index_.FindNearest(
        origin, max_distance, [&](const IndexedPoint& entry, double d) {
          return filter(entry.id, d);
        });
    return hit.id;
  }

  /// Invokes `fn(id, distance)` for every entry within `radius`, in the
  /// grid's order.
  template <typename Fn>
  void ForEachInDisk(Point origin, double radius, double query_time,
                     StartWindow window, Fn&& fn) const {
    (void)query_time;
    (void)window;
    index_.ForEachInDisk(origin, radius,
                         [&](const IndexedPoint& entry, double d) {
                           fn(entry.id, d);
                         });
  }

  /// Invokes `fn(id)` for every entry, in the grid's order.
  template <typename Fn>
  void ForEachId(Fn&& fn) const {
    index_.ForEachInDisk({index_.grid().width() / 2,
                          index_.grid().height() / 2},
                         std::numeric_limits<double>::max(),
                         [&](const IndexedPoint& entry, double) {
                           fn(entry.id);
                         });
  }

 private:
  GridIndex index_;
};

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_ORACLES_GRID_WAITING_POOL_H_
