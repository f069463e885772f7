// The waiting pool of the per-arrival sessions (SimpleGreedy, TGOA and the
// POLAR-OP+G fallback): a CandidateStore plus one reusable CandidateCursor
// (retrieval/candidate_engine.h). Queries prune by deadline and
// arrival-time window before the caller's filter runs, and account
// per-query stats into the session's RunTrace. Nearest answers in the
// canonical (distance, id) order; disk and id enumeration order is the
// store's, which is why callers sort what they collect. Test oracles run a
// GridIndex pool with the same interface (tests/oracles/
// grid_waiting_pool.h).
//
// ExpireBefore(now) erases the entries whose deadline is < now. Queries
// already prune those (strict: deadline == query time stays matchable), so
// a session that calls it with each decision's time, nondecreasing, gets
// the same answers from a smaller store.
//
// Callers pass the query radius FeasibleReach (model/feasibility.h)
// derives from the deadline predicate and the query's start window: the
// largest distance CanServe can accept for that arrival, not the global
// MaxFeasibleDistance. The radius is only a superset, so the caller's
// feasibility filter stays the authority.

#ifndef FTOA_RETRIEVAL_WAITING_POOL_H_
#define FTOA_RETRIEVAL_WAITING_POOL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "retrieval/candidate_engine.h"

namespace ftoa {

/// CandidateStore + one reusable cursor per pool.
class EngineWaitingPool {
 public:
  EngineWaitingPool(const GridSpec& grid, RetrievalStats* stats)
      : store_(grid), cursor_(&store_, stats) {}

  void Insert(int64_t id, Point location, double start, double deadline) {
    store_.Insert(RetrievalCandidate{id, location, start, deadline});
    if (expiring_) {
      expiry_.emplace_back(deadline, id);
      std::push_heap(expiry_.begin(), expiry_.end(), std::greater<>());
    }
  }
  bool Erase(int64_t id) { return store_.Erase(id); }
  bool Contains(int64_t id) const { return store_.Contains(id); }
  size_t size() const { return store_.size(); }

  /// Erases every entry whose deadline is < `now` and counts them in the
  /// stats' `expired`. `now` must not decrease between calls, and no later
  /// query may ask about an earlier time. A (deadline, id) min-heap finds
  /// the entries; heap records of ids erased since (matched) or
  /// re-inserted with another deadline are dropped when they surface. The
  /// first call queues the entries already stored and starts the heap, so
  /// a pool that never calls it (TGOA's) keeps none.
  void ExpireBefore(double now) {
    if (!expiring_) {
      expiring_ = true;
      store_.ForEach([&](const RetrievalCandidate& c) {
        expiry_.emplace_back(c.deadline, c.id);
      });
      std::make_heap(expiry_.begin(), expiry_.end(), std::greater<>());
    }
    int64_t expired = 0;
    while (!expiry_.empty() && expiry_.front().first < now) {
      std::pop_heap(expiry_.begin(), expiry_.end(), std::greater<>());
      const int64_t id = expiry_.back().second;
      expiry_.pop_back();
      const RetrievalCandidate* entry = store_.Find(id);
      if (entry != nullptr && entry->deadline < now) {
        store_.Erase(id);
        ++expired;
      }
    }
    if (expired > 0 && cursor_.stats() != nullptr) {
      cursor_.stats()->expired += expired;
    }
  }

  const CandidateStore& store() const { return store_; }

  template <typename FilterFn>
  int64_t Nearest(Point origin, double max_distance, double query_time,
                  StartWindow window, FilterFn&& filter) {
    const RetrievalCandidate hit = cursor_.Nearest(
        origin, max_distance, query_time, window,
        [&](const RetrievalCandidate& c, double d) {
          return filter(c.id, d);
        });
    return hit.id;
  }

  template <typename Fn>
  void ForEachInDisk(Point origin, double radius, double query_time,
                     StartWindow window, Fn&& fn) {
    cursor_.ForEachInDisk(origin, radius, query_time, window,
                          [&](const RetrievalCandidate& c, double d) {
                            fn(c.id, d);
                          });
  }

  template <typename Fn>
  void ForEachId(Fn&& fn) const {
    store_.ForEach([&](const RetrievalCandidate& c) { fn(c.id); });
  }

 private:
  CandidateStore store_;
  CandidateCursor cursor_;
  bool expiring_ = false;
  std::vector<std::pair<double, int64_t>> expiry_;  // (deadline, id) heap.
};

}  // namespace ftoa

#endif  // FTOA_RETRIEVAL_WAITING_POOL_H_
