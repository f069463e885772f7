// lint-fixture: path=bench/e2e/fixture_driver.cc
// The end-to-end driver outside src/ and tools/ may still assign the
// compatibility fields.
#include "serve/service_harness.h"

namespace ftoa {

void Configure(ServiceOptions* options) {
  options->retrieval = RetrievalMode::kEngine;
}

}  // namespace ftoa
