// lint-fixture: path=src/sim/fixture_dispatcher.cc
// Thread primitives outside src/flow and the guide generator are out of
// scope: the sharded dispatcher and the reconciler own a pool by design.
#include <future>
#include <vector>

#include "util/thread_pool.h"

namespace ftoa {

void DrainShards(ThreadPool* pool, std::vector<int>* out) {
  std::future<void> done = pool->Submit([out] { out->push_back(1); });
  done.get();
}

}  // namespace ftoa
