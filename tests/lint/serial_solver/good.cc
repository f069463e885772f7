// lint-fixture: path=src/flow/fixture_serial_scan.cc
// The serial scan: words like thread or ThreadPool in comments and string
// literals, and identifiers that merely contain them, stay quiet.
#include <cstdio>
#include <vector>

namespace ftoa {

void SerialScan(const std::vector<int>& arcs, std::vector<int>* out,
                int num_threads) {
  for (const int arc : arcs) {
    if (arc > 0) out->push_back(arc);
  }
  std::printf("ThreadPool unused, %d threads requested\n", num_threads);
}

}  // namespace ftoa
