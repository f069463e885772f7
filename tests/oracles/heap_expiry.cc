#include "oracles/heap_expiry.h"

namespace ftoa {
namespace testing {

std::vector<int64_t> HeapExpiry::DrainUpTo(double time) {
  std::vector<int64_t> drained;
  while (!heap_.empty() && heap_.top().first <= time) {
    drained.push_back(heap_.top().second);
    heap_.pop();
  }
  return drained;
}

}  // namespace testing
}  // namespace ftoa
