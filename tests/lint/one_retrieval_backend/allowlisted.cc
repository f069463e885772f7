// lint-fixture: path=src/serve/fixture_allow.cc
#include "serve/service_harness.h"

namespace ftoa {

bool DriverAskedForEngine(const ServiceOptions& options) {
  // ftoa-lint: ok(one-retrieval-backend): a migration shim, deleted with the driver's next edit
  return options.retrieval == RetrievalMode::kEngine;
}

}  // namespace ftoa
