// lint-fixture: path=src/core/guide_generator.cc
// A type-erased per-type-pair callback in the guide generator: the
// enumeration hands every feasible pair to it, once per guide solve.
#include <functional>

namespace ftoa {

void ForEachPair(int n, const std::function<void(int, int)>& fn) {  // lint-expect: no-std-function-hot-path
  for (int i = 0; i < n; ++i) fn(i, i);
}

}  // namespace ftoa
