// lint-fixture: path=src/core/trial_runner.cc
// Only the guide generator is serial in src/core: the rest of the
// directory stays out of scope.
#include <thread>

namespace ftoa {

void RunBeside() {
  std::thread worker([] {});
  worker.join();
}

}  // namespace ftoa
