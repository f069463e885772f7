// ExpiryCalendar: the serving loop's deadline schedule, one bucket per
// window.
//
// Expiry is checked only at integer window boundaries, and a deadline d
// has passed at window w exactly when ceil(d) <= w. So an id scheduled
// with deadline d goes into bucket ceil(d) — clamped to the first window
// not yet drained — and DrainUpTo(w) empties the buckets up to w: the
// same ids, window by window, that a deadline-ordered heap popping every
// deadline <= w would yield, in bucket order instead of deadline order.
// The buckets form a power-of-two ring over the windows from the first
// undrained one to the furthest scheduled one; a drained bucket keeps its
// capacity for the window that reuses its ring slot.

#ifndef FTOA_SERVE_EXPIRY_CALENDAR_H_
#define FTOA_SERVE_EXPIRY_CALENDAR_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ftoa {

class ExpiryCalendar {
 public:
  /// Schedules `id` to drain at the first window w >= the drain horizon
  /// with deadline <= w. `deadline` must be finite.
  void Add(int64_t id, double deadline) {
    const int64_t window =
        std::max(first_, static_cast<int64_t>(std::ceil(deadline)));
    const size_t span = static_cast<size_t>(window - first_) + 1;
    if (span > buckets_.size()) Grow(span);
    buckets_[static_cast<size_t>(window) & (buckets_.size() - 1)].push_back(
        id);
  }

  /// Calls visit(id) for every id scheduled at a window <= `window`, and
  /// advances the drain horizon past `window`.
  template <typename Visit>
  void DrainUpTo(int64_t window, Visit&& visit) {
    for (; first_ <= window; ++first_) {
      std::vector<int64_t>& bucket =
          buckets_[static_cast<size_t>(first_) & (buckets_.size() - 1)];
      for (const int64_t id : bucket) visit(id);
      bucket.clear();
    }
  }

 private:
  /// Resizes the ring to the next power of two >= `span`, re-slotting the
  /// scheduled windows.
  void Grow(size_t span) {
    size_t size = buckets_.size();
    while (size < span) size *= 2;
    std::vector<std::vector<int64_t>> grown(size);
    for (size_t i = 0; i < buckets_.size(); ++i) {
      const size_t w = static_cast<size_t>(first_) + i;
      grown[w & (size - 1)] = std::move(buckets_[w & (buckets_.size() - 1)]);
    }
    buckets_ = std::move(grown);
  }

  /// Ring; its size is a power of 2.
  std::vector<std::vector<int64_t>> buckets_ =
      std::vector<std::vector<int64_t>>(1);
  int64_t first_ = 0;  ///< First window not yet drained.
};

}  // namespace ftoa

#endif  // FTOA_SERVE_EXPIRY_CALENDAR_H_
