// lint-fixture: path=src/flow/fixture_parallel_scan.cc
// A solver scan sharded over a lent pool: every thread primitive and every
// include that brings one in fires.
#include <future>  // lint-expect: serial-solver
#include <vector>

#include "util/thread_pool.h"  // lint-expect: serial-solver

namespace ftoa {

void ShardedScan(ThreadPool* pool, std::vector<int>* out) {  // lint-expect: serial-solver
  std::future<void> done =  // lint-expect: serial-solver
      pool->Submit([out] { out->push_back(1); });
  done.get();
}

}  // namespace ftoa
