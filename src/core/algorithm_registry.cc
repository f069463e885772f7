#include "core/algorithm_registry.h"

#include "baselines/offline_opt.h"
#include "core/hybrid_polar_op.h"
#include "core/polar_op.h"
#include "util/string_util.h"

namespace ftoa {

std::vector<std::string> AllAlgorithmNames() {
  return {"simple-greedy", "gr",         "tgoa", "polar",
          "polar-op",      "polar-op-g", "opt"};
}

bool AlgorithmNeedsGuide(const std::string& name) {
  return name == "polar" || name == "polar-op" || name == "polar-op-g";
}

std::string AlgorithmDisplayName(const std::string& name) {
  if (name == "simple-greedy") return "SimpleGreedy";
  if (name == "gr") return "GR";
  if (name == "tgoa") return "TGOA";
  if (name == "polar") return "POLAR";
  if (name == "polar-op") return "POLAR-OP";
  if (name == "polar-op-g") return "POLAR-OP+G";
  if (name == "opt") return "OPT";
  return "";
}

Result<std::unique_ptr<OnlineAlgorithm>> CreateAlgorithm(
    const std::string& name, const AlgorithmDeps& deps) {
  if (AlgorithmNeedsGuide(name) && deps.guide == nullptr) {
    return Status::InvalidArgument("algorithm '" + name +
                                   "' requires an offline guide "
                                   "(AlgorithmDeps::guide is null)");
  }
  if (name == "simple-greedy") {
    return std::unique_ptr<OnlineAlgorithm>(
        new SimpleGreedy(deps.simple_greedy_options));
  }
  if (name == "gr") {
    return std::unique_ptr<OnlineAlgorithm>(new GrBatch(deps.gr_options));
  }
  if (name == "tgoa") {
    return std::unique_ptr<OnlineAlgorithm>(new Tgoa(deps.tgoa_options));
  }
  if (name == "polar") {
    return std::unique_ptr<OnlineAlgorithm>(
        new Polar(deps.guide, deps.polar_options));
  }
  if (name == "polar-op") {
    return std::unique_ptr<OnlineAlgorithm>(
        new PolarOp(deps.guide, deps.polar_options));
  }
  if (name == "polar-op-g") {
    return std::unique_ptr<OnlineAlgorithm>(
        new HybridPolarOp(deps.guide, deps.polar_options));
  }
  if (name == "opt") {
    return std::unique_ptr<OnlineAlgorithm>(new OfflineOpt());
  }
  return Status::NotFound("unknown algorithm: " + name + " (valid: " +
                          Join(AllAlgorithmNames(), ", ") + ")");
}

}  // namespace ftoa
