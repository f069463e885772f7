// lint-fixture: path=src/core/algorithm_registry.h
// The declaring headers keep the single-valued compatibility field.
#ifndef FTOA_CORE_ALGORITHM_REGISTRY_H_
#define FTOA_CORE_ALGORITHM_REGISTRY_H_

#include "retrieval/mode.h"

namespace ftoa {

struct AlgorithmDeps {
  RetrievalMode retrieval = RetrievalMode::kEngine;
};

}  // namespace ftoa

#endif  // FTOA_CORE_ALGORITHM_REGISTRY_H_
