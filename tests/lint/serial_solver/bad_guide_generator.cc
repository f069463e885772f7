// lint-fixture: path=src/core/guide_generator.cc
// Components solved on raw threads and async tasks inside the guide
// generator: each primitive fires.
#include <thread>  // lint-expect: serial-solver
#include <vector>

namespace ftoa {

void SolveComponents(std::vector<int>* flows, PoolSlice* slice) {  // lint-expect: serial-solver
  std::thread worker([flows] { flows->push_back(0); });  // lint-expect: serial-solver
  worker.join();
  auto pending = std::async([] { return 1; });  // lint-expect: serial-solver
  pending.wait();
}

}  // namespace ftoa
