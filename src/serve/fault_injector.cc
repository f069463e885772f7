#include "serve/fault_injector.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

namespace ftoa {

namespace {

constexpr const char* kValidFaults =
    "slow-shard, guide-fail, flash, drop-batch";

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin <= text.size()) {
    const size_t end = text.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(text.substr(begin));
      break;
    }
    parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

Status ParseNumber(const std::string& entry, const std::string& text,
                   double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  // NaN fails every range check downstream, so it is rejected here with
  // the infinities.
  if (end == nullptr || *end != '\0' || text.empty() ||
      !std::isfinite(*out)) {
    return Status::InvalidArgument("fault spec '" + entry +
                                   "': malformed number '" + text + "'");
  }
  return Status::OK();
}

/// Range-checks `value` into [lo, max of Int] before the float-to-integer
/// cast (an out-of-range cast is undefined behavior).
template <typename Int>
Status ToInteger(const std::string& entry, const std::string& key,
                 double value, Int lo, Int* out) {
  // 2^digits is exact in a double and one past the largest Int.
  if (value < static_cast<double>(lo) ||
      value >= std::ldexp(1.0, std::numeric_limits<Int>::digits)) {
    return Status::InvalidArgument(
        "fault spec '" + entry + "': " + key + " must be in [" +
        std::to_string(lo) + ", " +
        std::to_string(std::numeric_limits<Int>::max()) + "]");
  }
  *out = static_cast<Int>(value);
  return Status::OK();
}

Status ApplyParam(const std::string& entry, FaultSpec* fault,
                  const std::string& key, double value) {
  const bool is_slow = fault->name == "slow-shard";
  const bool is_fail = fault->name == "guide-fail";
  const bool is_flash = fault->name == "flash";
  const bool is_drop = fault->name == "drop-batch";
  if (key == "shard" && (is_slow || is_drop)) {
    return ToInteger(entry, key, value, -1, &fault->shard);
  } else if (key == "stall-ms" && is_slow) {
    if (value < 0) {
      return Status::InvalidArgument("fault spec '" + entry +
                                     "': stall-ms must be >= 0");
    }
    fault->stall_ms = value;
  } else if (key == "count" && is_fail) {
    return ToInteger<int64_t>(entry, key, value, 1, &fault->count);
  } else if (key == "factor" && is_flash) {
    if (value < 1.0) {
      return Status::InvalidArgument("fault spec '" + entry +
                                     "': factor must be >= 1");
    }
    fault->factor = value;
  } else if (key == "prob" && is_drop) {
    if (value < 0.0 || value > 1.0) {
      return Status::InvalidArgument("fault spec '" + entry +
                                     "': prob must be in [0, 1]");
    }
    fault->prob = value;
  } else {
    std::string valid;
    if (is_slow) valid = "shard, stall-ms";
    if (is_fail) valid = "count";
    if (is_flash) valid = "factor";
    if (is_drop) valid = "shard, prob";
    return Status::InvalidArgument("fault spec '" + entry +
                                   "': unknown parameter '" + key + "' for " +
                                   fault->name + " (valid: " + valid + ")");
  }
  return Status::OK();
}

Result<FaultSpec> ParseEntry(const std::string& entry) {
  const size_t at = entry.find('@');
  if (at == std::string::npos) {
    return Status::InvalidArgument(
        "fault spec '" + entry +
        "': expected <name>@<begin>-<end>[:<key>=<value>]...");
  }
  FaultSpec fault;
  fault.name = entry.substr(0, at);
  if (fault.name != "slow-shard" && fault.name != "guide-fail" &&
      fault.name != "flash" && fault.name != "drop-batch") {
    return Status::InvalidArgument("unknown fault '" + fault.name +
                                   "' (valid faults: " + kValidFaults + ")");
  }

  const std::vector<std::string> fields = Split(entry.substr(at + 1), ':');
  const size_t dash = fields[0].find('-');
  if (dash == std::string::npos) {
    return Status::InvalidArgument("fault spec '" + entry +
                                   "': window range must be <begin>-<end>");
  }
  double begin = 0.0;
  double end = 0.0;
  FTOA_RETURN_NOT_OK(ParseNumber(entry, fields[0].substr(0, dash), &begin));
  FTOA_RETURN_NOT_OK(ParseNumber(entry, fields[0].substr(dash + 1), &end));
  FTOA_RETURN_NOT_OK(
      ToInteger<int64_t>(entry, "window begin", begin, 0, &fault.begin_window));
  FTOA_RETURN_NOT_OK(
      ToInteger<int64_t>(entry, "window end", end, 0, &fault.end_window));
  if (fault.end_window < fault.begin_window) {
    return Status::InvalidArgument(
        "fault spec '" + entry +
        "': window range must satisfy 0 <= begin <= end");
  }

  for (size_t i = 1; i < fields.size(); ++i) {
    const size_t eq = fields[i].find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault spec '" + entry +
                                     "': parameter '" + fields[i] +
                                     "' must be <key>=<value>");
    }
    double value = 0.0;
    FTOA_RETURN_NOT_OK(ParseNumber(entry, fields[i].substr(eq + 1), &value));
    FTOA_RETURN_NOT_OK(
        ApplyParam(entry, &fault, fields[i].substr(0, eq), value));
  }
  return fault;
}

bool InWindow(const FaultSpec& fault, int64_t window) {
  return window >= fault.begin_window && window <= fault.end_window;
}

}  // namespace

Result<FaultInjector> FaultInjector::Parse(const std::string& spec,
                                           uint64_t seed) {
  FaultInjector injector;
  injector.rng_.Seed(seed ^ 0xfa017c0ffee1ULL);
  if (spec.empty()) return injector;
  for (const std::string& entry : Split(spec, ',')) {
    if (entry.empty()) {
      return Status::InvalidArgument(
          "fault spec: empty entry (trailing or doubled comma?)");
    }
    FTOA_ASSIGN_OR_RETURN(FaultSpec fault, ParseEntry(entry));
    injector.faults_.push_back(std::move(fault));
  }
  return injector;
}

double FaultInjector::SlowShardStallMs(int64_t window, int shard) const {
  double total = 0.0;
  for (const FaultSpec& fault : faults_) {
    if (fault.name == "slow-shard" && InWindow(fault, window) &&
        (fault.shard < 0 || fault.shard == shard)) {
      total += fault.stall_ms;
    }
  }
  return total;
}

double FaultInjector::FlashCrowdFactor(int64_t window) const {
  double factor = 1.0;
  for (const FaultSpec& fault : faults_) {
    if (fault.name == "flash" && InWindow(fault, window)) {
      factor *= fault.factor;
    }
  }
  return factor;
}

bool FaultInjector::GuideRefreshShouldFail(int64_t window) {
  for (FaultSpec& fault : faults_) {
    if (fault.name == "guide-fail" && InWindow(fault, window) &&
        fault.count > 0) {
      --fault.count;
      ++counters_.guide_failures;
      return true;
    }
  }
  return false;
}

bool FaultInjector::ShouldDropHandoffBatch(int64_t window, int shard) {
  for (const FaultSpec& fault : faults_) {
    if (fault.name == "drop-batch" && InWindow(fault, window) &&
        (fault.shard < 0 || fault.shard == shard)) {
      if (fault.prob >= 1.0 || rng_.NextDouble() < fault.prob) {
        ++counters_.dropped_batches;
        return true;
      }
    }
  }
  return false;
}

}  // namespace ftoa
