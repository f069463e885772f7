// Workload configuration structs mirroring the paper's Table 4 (synthetic)
// and Table 3 (real-data profiles, substituted by the city-trace
// generator — see DESIGN.md Section 3).

#ifndef FTOA_GEN_CONFIG_H_
#define FTOA_GEN_CONFIG_H_

#include <cstdint>
#include <string>

#include "util/result.h"
#include "util/status.h"

namespace ftoa {

/// Temporal/spatial distribution parameters of one market side, expressed
/// as fractions exactly like Table 4: the temporal distribution is
/// N(mu * horizon, (sigma * horizon)^2) truncated to the horizon, and the
/// spatial distribution is N(mean * (X, Y), diag(cov * X, cov * Y))
/// truncated to the region (the paper's covariance "value times the matrix
/// diag(x, y)").
struct SideDistribution {
  double temporal_mu = 0.5;
  double temporal_sigma = 0.5;
  double spatial_mean = 0.5;
  double spatial_cov = 0.5;
};

/// Full synthetic-workload configuration (Table 4 defaults in bold there).
struct SyntheticConfig {
  int num_workers = 20000;   ///< |W|.
  int num_tasks = 20000;     ///< |R|.
  int grid_x = 50;           ///< Cells along X (cells are 1x1 units).
  int grid_y = 50;           ///< Cells along Y.
  int num_slots = 48;        ///< t; one slot is one time unit (15 min).
  double velocity = 5.0;     ///< Cells per slot (~40 km/h in the paper).
  double task_duration = 2.0;   ///< Dr, in slots.
  double worker_duration = 3.0; ///< Dw, in slots.

  /// Workers are fixed at 0.25-fraction means per the paper's Section 6.2
  /// discussion ("the workers' mu = 0.25", spatial mean (0.25x, 0.25y)).
  SideDistribution workers{0.25, 0.25, 0.25, 0.25};
  /// Task-side defaults are the bold entries of Table 4.
  SideDistribution tasks{0.5, 0.5, 0.5, 0.5};

  uint64_t seed = 42;

  /// Sanity-checks field ranges.
  Status Validate() const;
};

/// City profile for the trace generator substituting the Didi datasets.
struct CityProfile {
  std::string name = "beijing";
  int grid_x = 30;            ///< Paper real data: 20 x 30 = 600 grids.
  int grid_y = 20;
  int slots_per_day = 12;     ///< t = 12 as in Table 3 (2-hour slots).
  int history_days = 28;      ///< Training+test horizon.
  /// Mean daily object counts (the paper's Table 3 scale; benches shrink
  /// both counts and grid together to keep per-type density realistic).
  double workers_per_day = 48000.0;
  double tasks_per_day = 52000.0;
  double velocity = 2.0;           ///< Cells per slot.
  double task_duration = 1.0;      ///< Dr in slots (paper sweeps 0.5-1.5).
  double worker_duration = 2.0;    ///< Dw in slots (paper: 2 hours).
  uint64_t seed = 2016;

  /// Supply/demand shape knobs (differ per city in the built-in profiles).
  double weekend_demand_factor = 0.8;
  double rush_hour_sharpness = 1.0;
  double supply_surplus = 1.0;  ///< >1: more workers than tasks overall.

  /// Hours by which the worker (supply) spatial distribution lags the task
  /// (demand) distribution: idle drivers drift toward where demand *was*,
  /// which is exactly the mismatch prediction-guided dispatching exploits.
  double worker_spatial_lag_hours = 2.0;
};

/// Built-in profiles approximating Table 3's two cities.
CityProfile BeijingProfile();
CityProfile HangzhouProfile();

/// The built-in profile called `name` ("beijing" or "hangzhou"); NotFound,
/// listing both, for any other name.
Result<CityProfile> CityProfileByName(const std::string& name);

}  // namespace ftoa

#endif  // FTOA_GEN_CONFIG_H_
