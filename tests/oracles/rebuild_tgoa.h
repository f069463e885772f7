// Reference TGOA: the rebuild-per-arrival second phase the baseline
// shipped before baselines/tgoa learned to carry one incremental matcher
// across arrivals. Every second-phase arrival re-enumerates the candidate
// edges of the whole waiting pool and solves a fresh Hopcroft-Karp
// instance; the newcomer is committed when it is matched there. The
// production session must commit as many pairs on every instance (the
// partners may differ between equally large matchings). Its waiting pools
// are the pre-engine grid index (oracles/grid_waiting_pool.h) searched over
// the global MaxFeasibleDistance radius, so agreeing with it also pins the
// production session's engine pools and FeasibleReach radius.

#ifndef FTOA_TESTS_ORACLES_REBUILD_TGOA_H_
#define FTOA_TESTS_ORACLES_REBUILD_TGOA_H_

#include <memory>
#include <string>

#include "baselines/tgoa.h"

namespace ftoa {
namespace testing {

/// Same contract as Tgoa.
class RebuildTgoa final : public OnlineAlgorithm {
 public:
  explicit RebuildTgoa(TgoaOptions options = {}) : options_(options) {}

  std::string name() const override { return "TGOA"; }
  FeasibilityPolicy feasibility_policy() const override {
    return options_.policy;
  }

  std::unique_ptr<AssignmentSession> StartSession(
      const Instance& instance) override;

 private:
  TgoaOptions options_;
};

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_ORACLES_REBUILD_TGOA_H_
