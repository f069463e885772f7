// Shared top-k feasible-candidate retrieval over the uniform grid — the
// engine behind every per-arrival candidate scan (greedy baselines, TGOA's
// edge discovery, the POLAR fallback, the boundary reconciler's cell walk).
//
// Design (docs/candidate_retrieval.md):
//  * CandidateStore — a dynamic point set bucketed per grid cell, each
//    bucket kept sorted by (start, id). Arrival-ordered insertion is an
//    O(1) append; erase tombstones in place (offsets stay stable) and
//    compacts a bucket when half of it is dead. The sort order is what
//    buys the per-cell *arrival-time binary search*: a query with a start
//    window [lo, hi] touches only the bucket span that can pass the
//    deadline predicate. Each cell keeps its live-entry count, and every
//    walk skips a cell whose count is 0 with one load, before the radius
//    bound or the binary search. Entries are located through a vector
//    indexed by id, so ids must be dense non-negative instance ids.
//  * CandidateCursor — reusable per-session query state (top-k buffer,
//    ring walk scratch, stats sink). One cursor per session amortizes all
//    allocation across that session's decisions; cursors are independent,
//    so sessions on different threads each own one.
//  * Queries run a best-first expanding-ring walk: cells are visited ring
//    by ring around the origin, each cell lower-bounded by
//    GridSpec::DistanceToCell and skipped when the bound exceeds the
//    current kth-best distance, and the walk stops when even the nearest
//    point of the next ring cannot beat the kth-best — the exact
//    termination rule of GridIndex::FindNearest (grid_index.h:93), pinned
//    by tests/spatial/grid_index_test.cc. A caller that already knows the
//    only cells its filter can accept passes them as a list instead; the
//    query then visits just those cells, nearest lower bound first, with
//    the same per-cell bucket scan.
//  * Results are canonical: candidates are ordered by (distance, id), a
//    total order independent of scan order, so the engine's result set is
//    bit-identical to a linear scan over the same live entries — the
//    oracle equivalence the retrieval test suite enforces.
//
// Hot-path rule: every query is templated on its filter callable (enforced
// by ftoa-lint's no-std-function-hot-path check, which covers
// src/retrieval/); a query pays a direct, usually inlined, call per
// candidate.

#ifndef FTOA_RETRIEVAL_CANDIDATE_ENGINE_H_
#define FTOA_RETRIEVAL_CANDIDATE_ENGINE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "retrieval/stats.h"
#include "spatial/grid.h"
#include "spatial/point.h"

namespace ftoa {

/// One live entry of a CandidateStore: an identified point with the
/// arrival-time attributes the engine prunes on.
struct RetrievalCandidate {
  int64_t id = -1;
  Point location;
  double start = 0.0;
  double deadline = 0.0;
};

/// Inclusive arrival-time window restricting a query to entries with
/// start in [lo, hi]. The default admits everything.
struct StartWindow {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

/// One scored query result.
struct ScoredCandidate {
  double distance = 0.0;
  RetrievalCandidate candidate;
};

/// Dynamic candidate set bucketed per grid cell, buckets sorted by
/// (start, id). Ids must be unique among live entries; Insert overwrites.
class CandidateStore {
 public:
  explicit CandidateStore(const GridSpec& grid);

  /// Inserts an entry (O(1) amortized when starts arrive in nondecreasing
  /// order per cell — the arrival-stream case). Replaces any live entry
  /// with the same id. The id indexes the store's locator, so it must be a
  /// dense non-negative instance id; an id outside [0, INT32_MAX] aborts.
  void Insert(const RetrievalCandidate& candidate);

  /// Removes an entry by id (tombstone; offsets of other entries stay
  /// valid). Returns false when absent.
  bool Erase(int64_t id);

  /// The live entry stored under `id`, or nullptr.
  const RetrievalCandidate* Find(int64_t id) const {
    if (id < 0 || static_cast<size_t>(id) >= locator_.size()) return nullptr;
    const Slot slot = locator_[static_cast<size_t>(id)];
    if (slot.cell < 0) return nullptr;
    return &buckets_[static_cast<size_t>(slot.cell)]
                    [static_cast<size_t>(slot.offset)];
  }

  /// True iff `id` is currently stored.
  bool Contains(int64_t id) const { return Find(id) != nullptr; }

  /// Number of live entries.
  size_t size() const { return size_; }

  /// Live entries in `cell`'s bucket (its tombstones not counted).
  int32_t live(CellId cell) const {
    return live_[static_cast<size_t>(cell)];
  }

  /// Invokes `fn(const RetrievalCandidate&)` for every live entry, in
  /// (cell id, bucket position) order — deterministic given the same
  /// insert/erase history.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& bucket : buckets_) {
      for (const RetrievalCandidate& entry : bucket) {
        if (entry.id >= 0) fn(entry);
      }
    }
  }

  const GridSpec& grid() const { return grid_; }

  /// Live entries of one cell bucket in (start, id) order, tombstones
  /// included (id < 0) — the cursor's scan substrate.
  const std::vector<RetrievalCandidate>& bucket(CellId cell) const {
    return buckets_[static_cast<size_t>(cell)];
  }

 private:
  friend class CandidateCursor;

  void CompactBucket(CellId cell);

  /// Where an id's entry sits; cell -1 when the id is not stored.
  struct Slot {
    int32_t cell = -1;
    int32_t offset = 0;
  };

  GridSpec grid_;
  std::vector<std::vector<RetrievalCandidate>> buckets_;
  std::vector<int32_t> live_;  // Live entries per bucket.
  std::vector<Slot> locator_;  // Indexed by id.
  size_t size_ = 0;
};

/// Reusable per-session query state over one CandidateStore. Not
/// thread-safe; one cursor per session. All stats are accumulated into the
/// sink the cursor was constructed with (typically the session's
/// RunTrace::retrieval), so surfacing them costs nothing extra.
class CandidateCursor {
 public:
  /// `stats` may be nullptr (queries then keep only local counters).
  CandidateCursor(const CandidateStore* store, RetrievalStats* stats)
      : store_(store), stats_(stats) {}

  /// Re-targets the cursor (e.g. after a store rebuild). Scratch capacity
  /// is retained.
  void Bind(const CandidateStore* store) { store_ = store; }

  /// The k nearest live entries within `max_distance` of `origin` whose
  /// start lies in `window`, whose deadline is >= `query_time`, and which
  /// pass `filter` — any callable `bool(const RetrievalCandidate&, double
  /// distance)`. Returned in (distance, id) order; the reference is valid
  /// until the next query on this cursor.
  template <typename FilterFn>
  const std::vector<ScoredCandidate>& TopK(Point origin, double max_distance,
                                           size_t k, double query_time,
                                           StartWindow window,
                                           FilterFn&& filter) {
    return TopK(origin, max_distance, k, query_time, window,
                [](CellId) { return true; }, std::forward<FilterFn>(filter));
  }

  /// TopK restricted to the cells `admit_cell` — any callable
  /// `bool(CellId)` — accepts. A rejected cell is dropped before the radius
  /// bound and the bucket scan, so it counts in neither cells_visited nor
  /// candidates_examined. Exact whenever every entry of a rejected cell
  /// would fail `filter` anyway (the boundary reconciler's own-shard
  /// cells); the result then equals the unrestricted query's.
  template <typename AdmitCellFn, typename FilterFn,
            typename = std::enable_if_t<
                std::is_invocable_r_v<bool, AdmitCellFn&, CellId>>>
  const std::vector<ScoredCandidate>& TopK(Point origin, double max_distance,
                                           size_t k, double query_time,
                                           StartWindow window,
                                           AdmitCellFn&& admit_cell,
                                           FilterFn&& filter) {
    topk_.clear();
    QueryCounts counts;
    if (store_ == nullptr || store_->size() == 0 || k == 0) {
      RecordQuery(counts);
      return topk_;
    }
    const GridSpec& grid = store_->grid();
    const int origin_cx = grid.CellX(grid.CellOf(origin));
    const int origin_cy = grid.CellY(grid.CellOf(origin));
    const double cell_min = std::min(grid.cell_width(), grid.cell_height());
    // Any finite radius beyond the region diagonal covers every cell.
    const double reach =
        std::min(max_distance, grid.width() + grid.height());
    const int max_ring = static_cast<int>(std::ceil(reach / cell_min)) + 1;

    const auto scan_cell = [&](int cx, int cy) {
      if (!grid.ValidCell(cx, cy)) return;
      const CellId cell = grid.CellAt(cx, cy);
      if (store_->live(cell) == 0 || !admit_cell(cell)) return;
      // Radius lower bound: skip cells that cannot beat the current tail.
      if (grid.DistanceToCell(origin, cell) > Bound(k, max_distance)) return;
      ScanCell(cell, origin, max_distance, k, query_time, window, filter,
               &counts);
    };

    for (int ring = 0; ring <= max_ring; ++ring) {
      // Ring cutoff: once full, stop when even the closest point of this
      // ring is farther than the kth-best (the ring lower bound grows by
      // one cell size per step) — grid_index.h:93's rule generalized to k.
      if (topk_.size() == k &&
          static_cast<double>(ring - 1) * cell_min > topk_.back().distance) {
        break;
      }
      if (ring == 0) {
        scan_cell(origin_cx, origin_cy);
        continue;
      }
      for (int dx = -ring; dx <= ring; ++dx) {
        scan_cell(origin_cx + dx, origin_cy - ring);
        scan_cell(origin_cx + dx, origin_cy + ring);
      }
      for (int dy = -ring + 1; dy <= ring - 1; ++dy) {
        scan_cell(origin_cx - ring, origin_cy + dy);
        scan_cell(origin_cx + ring, origin_cy + dy);
      }
    }
    RecordQuery(counts);
    return topk_;
  }

  /// TopK over an explicit list of `cells` (any order, repeats allowed)
  /// instead of the ring walk: the distinct cells are visited in ascending
  /// GridSpec::DistanceToCell (ties by id), and the walk stops at the first
  /// cell whose lower bound exceeds the current kth-best distance. Each
  /// visited cell gets the ring walk's bucket scan. The result equals the
  /// ring-walk TopK whose `admit_cell` accepts exactly `cells`; only the
  /// counters may differ, as cells are visited in another order. For a
  /// caller that can name the few cells its filter may accept (the boundary
  /// reconciler's guide-capacity cells), this skips the walk over the rest
  /// of the disk.
  template <typename FilterFn>
  const std::vector<ScoredCandidate>& TopK(Point origin, double max_distance,
                                           size_t k, double query_time,
                                           StartWindow window,
                                           const std::vector<CellId>& cells,
                                           FilterFn&& filter) {
    topk_.clear();
    QueryCounts counts;
    if (store_ == nullptr || store_->size() == 0 || k == 0) {
      RecordQuery(counts);
      return topk_;
    }
    const GridSpec& grid = store_->grid();
    cell_order_.clear();
    for (const CellId cell : cells) {
      if (store_->live(cell) == 0) continue;
      const double d = grid.DistanceToCell(origin, cell);
      if (d <= max_distance) cell_order_.emplace_back(d, cell);
    }
    std::sort(cell_order_.begin(), cell_order_.end());
    cell_order_.erase(std::unique(cell_order_.begin(), cell_order_.end()),
                      cell_order_.end());
    for (const auto& [d, cell] : cell_order_) {
      // Every later cell is at least as far: none can beat the tail.
      if (d > Bound(k, max_distance)) break;
      ScanCell(cell, origin, max_distance, k, query_time, window, filter,
               &counts);
    }
    RecordQuery(counts);
    return topk_;
  }

  /// Nearest single candidate (TopK with k = 1); id -1 when none.
  template <typename FilterFn>
  RetrievalCandidate Nearest(Point origin, double max_distance,
                             double query_time, StartWindow window,
                             FilterFn&& filter) {
    const auto& hits = TopK(origin, max_distance, 1, query_time, window,
                            std::forward<FilterFn>(filter));
    return hits.empty() ? RetrievalCandidate{} : hits.front().candidate;
  }

  /// Invokes `fn(const RetrievalCandidate&, double distance)` for every
  /// live entry within `radius` whose start lies in `window` and whose
  /// deadline is >= `query_time`. Enumeration order is (cell, bucket span)
  /// — NOT canonical; callers needing determinism across backends must
  /// sort what they collect (the TGOA port sorts edge ids).
  template <typename Fn>
  void ForEachInDisk(Point origin, double radius, double query_time,
                     StartWindow window, Fn&& fn) {
    int64_t cells = 0;
    int64_t examined = 0;
    int64_t pruned = 0;
    if (store_ == nullptr || store_->size() == 0) {
      if (stats_ != nullptr) stats_->RecordQuery(cells, examined, pruned);
      return;
    }
    const GridSpec& grid = store_->grid();
    radius = std::min(radius, grid.width() + grid.height());
    const int cx_lo = std::max(
        0, static_cast<int>((origin.x - radius) / grid.cell_width()));
    const int cx_hi =
        std::min(grid.cells_x() - 1,
                 static_cast<int>((origin.x + radius) / grid.cell_width()));
    const int cy_lo = std::max(
        0, static_cast<int>((origin.y - radius) / grid.cell_height()));
    const int cy_hi =
        std::min(grid.cells_y() - 1,
                 static_cast<int>((origin.y + radius) / grid.cell_height()));
    for (int cy = cy_lo; cy <= cy_hi; ++cy) {
      for (int cx = cx_lo; cx <= cx_hi; ++cx) {
        const CellId cell = grid.CellAt(cx, cy);
        if (store_->live(cell) == 0) continue;
        if (grid.DistanceToCell(origin, cell) > radius) continue;
        const std::vector<RetrievalCandidate>& bucket = store_->bucket(cell);
        ++cells;
        auto it = std::lower_bound(bucket.begin(), bucket.end(), window.lo,
                                   [](const RetrievalCandidate& e,
                                      double lo) { return e.start < lo; });
        for (; it != bucket.end() && it->start <= window.hi; ++it) {
          if (it->id < 0) continue;
          ++examined;
          if (it->deadline < query_time) {
            ++pruned;
            continue;
          }
          const double d = Distance(origin, it->location);
          if (d > radius) {
            ++pruned;
            continue;
          }
          fn(*it, d);
        }
      }
    }
    if (stats_ != nullptr) stats_->RecordQuery(cells, examined, pruned);
  }

  RetrievalStats* stats() { return stats_; }
  void set_stats(RetrievalStats* stats) { stats_ = stats; }

 private:
  /// Per-query counters, recorded into the stats sink once at the end.
  struct QueryCounts {
    int64_t cells = 0;
    int64_t examined = 0;
    int64_t pruned = 0;
  };

  void RecordQuery(const QueryCounts& counts) {
    if (stats_ != nullptr) {
      stats_->RecordQuery(counts.cells, counts.examined, counts.pruned);
    }
  }

  /// Current TopK pruning bound: the query radius until the top-k is full,
  /// then the kth-best distance.
  double Bound(size_t k, double max_distance) const {
    return topk_.size() == k ? topk_.back().distance : max_distance;
  }

  /// TopK's scan of one cell's bucket, shared by the ring walk and the
  /// cell-list query: the arrival-time binary search, then per entry the
  /// deadline prune, the kth-best prune, `filter`, and Offer. Both callers
  /// have already skipped the cell if it holds no live entry.
  template <typename FilterFn>
  void ScanCell(CellId cell, Point origin, double max_distance, size_t k,
                double query_time, StartWindow window, FilterFn& filter,
                QueryCounts* counts) {
    const std::vector<RetrievalCandidate>& bucket = store_->bucket(cell);
    ++counts->cells;
    // Arrival-time binary search: the bucket is (start, id)-sorted, so the
    // window maps to one contiguous span.
    auto it = std::lower_bound(
        bucket.begin(), bucket.end(), window.lo,
        [](const RetrievalCandidate& e, double lo) { return e.start < lo; });
    for (; it != bucket.end() && it->start <= window.hi; ++it) {
      if (it->id < 0) continue;  // Tombstone.
      ++counts->examined;
      // Deadline prune: an entry gone before the query instant can never
      // pass either CanServe policy (strict — deadline == query_time may
      // still be feasible).
      if (it->deadline < query_time) {
        ++counts->pruned;
        continue;
      }
      const double d = Distance(origin, it->location);
      if (d > Bound(k, max_distance) || WorseThanTail(d, it->id, k)) {
        ++counts->pruned;
        continue;
      }
      if (!filter(*it, d)) continue;
      Offer(ScoredCandidate{d, *it}, k);
    }
  }

  /// True when a full top-k would not take (d, id): it ranks at or after
  /// the tail in (distance, id) order.
  bool WorseThanTail(double d, int64_t id, size_t k) const {
    if (topk_.size() < k) return false;
    const ScoredCandidate& tail = topk_.back();
    return d > tail.distance || (d == tail.distance && id >= tail.candidate.id);
  }

  /// Sorted-insert into the top-k buffer by (distance, id); drops the
  /// overflow. O(k) — k is small (1 for nearest, single digits for the
  /// reconciler).
  void Offer(const ScoredCandidate& c, size_t k) {
    const auto less = [](const ScoredCandidate& a, const ScoredCandidate& b) {
      return a.distance < b.distance ||
             (a.distance == b.distance && a.candidate.id < b.candidate.id);
    };
    topk_.insert(std::upper_bound(topk_.begin(), topk_.end(), c, less), c);
    if (topk_.size() > k) topk_.pop_back();
  }

  const CandidateStore* store_;
  RetrievalStats* stats_;
  std::vector<ScoredCandidate> topk_;
  std::vector<std::pair<double, CellId>> cell_order_;  // Cell-list scratch.
};

}  // namespace ftoa

#endif  // FTOA_RETRIEVAL_CANDIDATE_ENGINE_H_
