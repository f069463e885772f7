// Reference SimpleGreedy: the paper's linear scan (Section 2.2, cost model
// of Section 6.2). Every arrival scans all waiting counterparts, keeps the
// nearest feasible one by (distance, id), and compacts expired entries out
// of the waiting list on the way. The production session
// (baselines/simple_greedy) searches the retrieval engine instead and must
// commit the same pairs at the same times on every stream.

#ifndef FTOA_TESTS_ORACLES_LINEAR_SIMPLE_GREEDY_H_
#define FTOA_TESTS_ORACLES_LINEAR_SIMPLE_GREEDY_H_

#include <memory>
#include <string>

#include "baselines/simple_greedy.h"

namespace ftoa {
namespace testing {

/// Same contract as SimpleGreedy.
class LinearSimpleGreedy final : public OnlineAlgorithm {
 public:
  explicit LinearSimpleGreedy(SimpleGreedyOptions options = {})
      : options_(options) {}

  std::string name() const override { return "SimpleGreedy"; }
  FeasibilityPolicy feasibility_policy() const override {
    return options_.policy;
  }

  std::unique_ptr<AssignmentSession> StartSession(
      const Instance& instance) override;

 private:
  SimpleGreedyOptions options_;
};

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_ORACLES_LINEAR_SIMPLE_GREEDY_H_
