// Reference POLAR-OP and POLAR-OP+G: the sessions as they were before the
// production ones moved their node wait queues into intrusive lists and
// their per-type node lookup onto the guide's id ranges. Every guide node
// owns a std::vector FIFO with a head cursor, and each session lists a
// type's nodes itself by scanning the guide's nodes in id order. The
// production sessions must commit the same pairs at the same times on
// every stream, across guide swaps, with liveness checks on and off.

#ifndef FTOA_TESTS_ORACLES_VECTOR_QUEUE_POLAR_OP_H_
#define FTOA_TESTS_ORACLES_VECTOR_QUEUE_POLAR_OP_H_

#include <memory>
#include <string>
#include <utility>

#include "core/guide.h"
#include "core/online_algorithm.h"
#include "core/polar.h"

namespace ftoa {
namespace testing {

/// Same contract as PolarOp.
class VectorQueuePolarOp final : public OnlineAlgorithm {
 public:
  explicit VectorQueuePolarOp(std::shared_ptr<const OfflineGuide> guide,
                              PolarOptions options = {})
      : guide_(std::move(guide)), options_(options) {}

  std::string name() const override { return "POLAR-OP"; }
  const OfflineGuide* guide() const override { return guide_.get(); }

  std::unique_ptr<AssignmentSession> StartSession(
      const Instance& instance) override;

 private:
  std::shared_ptr<const OfflineGuide> guide_;
  PolarOptions options_;
};

/// Same contract as HybridPolarOp (grid waiting pools).
class VectorQueueHybridPolarOp final : public OnlineAlgorithm {
 public:
  explicit VectorQueueHybridPolarOp(std::shared_ptr<const OfflineGuide> guide,
                                    PolarOptions options = {})
      : guide_(std::move(guide)), options_(options) {}

  std::string name() const override { return "POLAR-OP+G"; }
  const OfflineGuide* guide() const override { return guide_.get(); }

  std::unique_ptr<AssignmentSession> StartSession(
      const Instance& instance) override;

 private:
  std::shared_ptr<const OfflineGuide> guide_;
  PolarOptions options_;
};

}  // namespace testing
}  // namespace ftoa

#endif  // FTOA_TESTS_ORACLES_VECTOR_QUEUE_POLAR_OP_H_
