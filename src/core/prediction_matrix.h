// PredictionMatrix: the a_ij / b_ij matrices of the paper — predicted
// numbers of workers and tasks per (time slot, grid area) type. This is the
// interface between the offline-prediction step and guide generation.

#ifndef FTOA_CORE_PREDICTION_MATRIX_H_
#define FTOA_CORE_PREDICTION_MATRIX_H_

#include <cstdint>
#include <vector>

#include "model/instance.h"
#include "spatial/spacetime.h"
#include "util/rng.h"

namespace ftoa {

/// Integer per-type counts of predicted workers (a_ij) and tasks (b_ij).
class PredictionMatrix {
 public:
  PredictionMatrix() = default;

  /// All-zero matrices over the given type space.
  explicit PredictionMatrix(const SpacetimeSpec& spacetime);

  const SpacetimeSpec& spacetime() const { return spacetime_; }

  int32_t workers_at(TypeId type) const {
    return workers_[static_cast<size_t>(type)];
  }
  int32_t tasks_at(TypeId type) const {
    return tasks_[static_cast<size_t>(type)];
  }
  void set_workers_at(TypeId type, int32_t count) {
    workers_[static_cast<size_t>(type)] = count;
  }
  void set_tasks_at(TypeId type, int32_t count) {
    tasks_[static_cast<size_t>(type)] = count;
  }

  const std::vector<int32_t>& workers() const { return workers_; }
  const std::vector<int32_t>& tasks() const { return tasks_; }

  /// m = sum a_ij — the number of predicted workers.
  int64_t TotalWorkers() const;
  /// n = sum b_ij — the number of predicted tasks.
  int64_t TotalTasks() const;

  /// The realized counts of `instance` — a perfect prediction.
  static PredictionMatrix FromInstance(const Instance& instance);

  /// From real-valued predicted intensities (rounded to nearest integer,
  /// negatives clamped to 0). Both vectors must have num_types() entries.
  static PredictionMatrix FromIntensities(
      const SpacetimeSpec& spacetime, const std::vector<double>& workers,
      const std::vector<double>& tasks);

  /// A copy with multiplicative lognormal-ish noise: each nonzero count c
  /// becomes round(c * (1 + noise)) with noise ~ N(0, relative_sigma), and
  /// with probability `phantom_rate` an empty type near a busy one receives
  /// a spurious count. Models imperfect offline prediction (E16 ablation).
  PredictionMatrix WithNoise(double relative_sigma, double phantom_rate,
                             Rng* rng) const;

 private:
  SpacetimeSpec spacetime_;
  std::vector<int32_t> workers_;
  std::vector<int32_t> tasks_;
};

/// Exact equality: the same type space and the same per-type counts.
inline bool operator==(const PredictionMatrix& a, const PredictionMatrix& b) {
  return a.spacetime() == b.spacetime() && a.workers() == b.workers() &&
         a.tasks() == b.tasks();
}

}  // namespace ftoa

#endif  // FTOA_CORE_PREDICTION_MATRIX_H_
