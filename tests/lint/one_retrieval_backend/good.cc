// lint-fixture: path=src/baselines/fixture_session.cc
// Naming RetrievalMode in a comment or a string is not a use; neither is an
// identifier that merely contains it.
#include <cstdio>

namespace ftoa {

void Report(int queries) {
  const int kRetrievalModeless = 0;
  std::printf("RetrievalMode gone, %d queries, %d\n", queries,
              kRetrievalModeless);
}

}  // namespace ftoa
