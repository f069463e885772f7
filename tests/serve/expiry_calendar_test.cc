#include "serve/expiry_calendar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "oracles/heap_expiry.h"
#include "util/rng.h"

namespace ftoa {
namespace {

std::vector<int64_t> Drain(ExpiryCalendar* calendar, int64_t window) {
  std::vector<int64_t> drained;
  calendar->DrainUpTo(window, [&](int64_t id) { drained.push_back(id); });
  std::sort(drained.begin(), drained.end());
  return drained;
}

std::vector<int64_t> Drain(testing::HeapExpiry* heap, int64_t window) {
  std::vector<int64_t> drained =
      heap->DrainUpTo(static_cast<double>(window));
  std::sort(drained.begin(), drained.end());
  return drained;
}

TEST(ExpiryCalendarTest, DrainsTheHeapsIdSetEveryWindow) {
  // Serving-loop shape: at window w, drain up to w, then schedule arrivals
  // with start in [w, w + 1) and a random duration.
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    ExpiryCalendar calendar;
    testing::HeapExpiry heap;
    int64_t next_id = 0;
    for (int64_t window = 0; window < 200; ++window) {
      ASSERT_EQ(Drain(&calendar, window), Drain(&heap, window))
          << "seed " << seed << " window " << window;
      const int64_t arrivals = rng.NextInt(0, 40);
      for (int64_t i = 0; i < arrivals; ++i) {
        double deadline = 0.0;
        switch (rng.NextInt(0, 5)) {
          case 0:  // Zero duration at an exact window start.
            deadline = static_cast<double>(window);
            break;
          case 1:  // Exact integer deadline ahead.
            deadline = static_cast<double>(window + rng.NextInt(1, 4));
            break;
          case 2:  // At or before the window just drained.
            deadline = static_cast<double>(window) - rng.NextDouble(0, 3);
            break;
          case 3:  // Many windows ahead.
            deadline = static_cast<double>(window) + rng.NextDouble(20, 150);
            break;
          default:  // A fractional start plus a short duration.
            deadline = static_cast<double>(window) + rng.NextDouble() +
                       rng.NextDouble(0, 3);
            break;
        }
        calendar.Add(next_id, deadline);
        heap.Add(next_id, deadline);
        ++next_id;
      }
    }
    // Everything scheduled drains by the furthest deadline.
    EXPECT_EQ(Drain(&calendar, 400), Drain(&heap, 400));
    EXPECT_TRUE(Drain(&calendar, 10000).empty());
  }
}

TEST(ExpiryCalendarTest, SkippedWindowsDrainTogether) {
  ExpiryCalendar calendar;
  testing::HeapExpiry heap;
  for (int64_t id = 0; id < 64; ++id) {
    const double deadline = 0.25 * static_cast<double>(id);
    calendar.Add(id, deadline);
    heap.Add(id, deadline);
  }
  EXPECT_EQ(Drain(&calendar, 3), Drain(&heap, 3));
  // A jump past a full turn of the ring drains every bucket on the way.
  EXPECT_EQ(Drain(&calendar, 100), Drain(&heap, 100));
  calendar.Add(64, 50.0);  // Clamped to the first undrained window.
  EXPECT_EQ(Drain(&calendar, 101), std::vector<int64_t>{64});
}

}  // namespace
}  // namespace ftoa
