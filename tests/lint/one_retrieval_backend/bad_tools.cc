// lint-fixture: path=tools/fixture_cli.cc
#include "serve/service_harness.h"

namespace ftoa {

void Configure(ServiceOptions* options) {
  options->retrieval = RetrievalMode::kEngine;  // lint-expect: one-retrieval-backend
}

}  // namespace ftoa
