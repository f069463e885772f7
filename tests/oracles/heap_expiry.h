// Reference expiry: the deadline-ordered min-heap ServiceHarness used
// before serve/expiry_calendar. Every scheduled (deadline, id) is popped
// once the drain time reaches its deadline. The calendar must yield the
// same id set at every integer window.

#ifndef FTOA_TESTS_ORACLES_HEAP_EXPIRY_H_
#define FTOA_TESTS_ORACLES_HEAP_EXPIRY_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace ftoa {
namespace testing {

class HeapExpiry {
 public:
  void Add(int64_t id, double deadline) { heap_.emplace(deadline, id); }

  /// Pops every id whose deadline is <= `time`, in deadline order.
  std::vector<int64_t> DrainUpTo(double time);

 private:
  std::priority_queue<std::pair<double, int64_t>,
                      std::vector<std::pair<double, int64_t>>,
                      std::greater<std::pair<double, int64_t>>>
      heap_;
};

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_ORACLES_HEAP_EXPIRY_H_
