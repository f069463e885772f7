// lint-fixture: path=src/core/online_algorithm.cc
// Only the guide generator is hot in src/core: the rest of the directory
// stays out of scope.
#include <functional>

namespace ftoa {

void OnEachWindow(int n, const std::function<void(int)>& hook) {
  for (int i = 0; i < n; ++i) hook(i);
}

}  // namespace ftoa
