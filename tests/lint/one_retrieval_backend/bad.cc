// lint-fixture: path=src/baselines/fixture_greedy.cc
// A session choosing its backend from the compatibility field, and a
// front end setting it: every RetrievalMode token in code fires.
#include "core/algorithm_registry.h"

namespace ftoa {

bool UsesEngine(const AlgorithmDeps& deps) {
  return deps.retrieval == RetrievalMode::kEngine;  // lint-expect: one-retrieval-backend
}

}  // namespace ftoa
