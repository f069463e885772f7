// lint-fixture: path=src/flow/fixture_allow.cc
// ftoa-lint: ok(serial-solver): hardware_concurrency only, no thread starts
#include <thread>

namespace ftoa {

int HardwareCores() {
  // ftoa-lint: ok(serial-solver): reads the core count for a report, starts no thread
  return static_cast<int>(std::thread::hardware_concurrency());
}

}  // namespace ftoa
