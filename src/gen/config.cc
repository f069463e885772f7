#include "gen/config.h"

namespace ftoa {

Status SyntheticConfig::Validate() const {
  if (num_workers < 0 || num_tasks < 0) {
    return Status::InvalidArgument("SyntheticConfig: negative object count");
  }
  if (grid_x <= 0 || grid_y <= 0) {
    return Status::InvalidArgument("SyntheticConfig: non-positive grid");
  }
  if (num_slots <= 0) {
    return Status::InvalidArgument("SyntheticConfig: non-positive slots");
  }
  if (velocity <= 0.0) {
    return Status::InvalidArgument("SyntheticConfig: non-positive velocity");
  }
  if (task_duration < 0.0 || worker_duration < 0.0) {
    return Status::InvalidArgument("SyntheticConfig: negative duration");
  }
  auto check_side = [](const SideDistribution& side) {
    return side.temporal_sigma >= 0.0 && side.spatial_cov >= 0.0;
  };
  if (!check_side(workers) || !check_side(tasks)) {
    return Status::InvalidArgument("SyntheticConfig: negative spread");
  }
  return Status::OK();
}

CityProfile BeijingProfile() {
  CityProfile profile;
  profile.name = "beijing";
  profile.grid_x = 30;
  profile.grid_y = 20;
  profile.workers_per_day = 50637.0;  // Table 3 |W|.
  profile.tasks_per_day = 54129.0;    // Table 3 |R|: demand exceeds supply.
  profile.rush_hour_sharpness = 1.3;
  profile.supply_surplus = 1.0;
  profile.seed = 2016;
  return profile;
}

CityProfile HangzhouProfile() {
  CityProfile profile;
  profile.name = "hangzhou";
  profile.grid_x = 30;
  profile.grid_y = 20;
  profile.workers_per_day = 49324.0;  // Table 3 |W|.
  profile.tasks_per_day = 48507.0;    // Table 3 |R|: supply exceeds demand.
  profile.rush_hour_sharpness = 0.9;
  profile.weekend_demand_factor = 1.1;  // Tourist city: busier weekends.
  profile.supply_surplus = 1.05;
  profile.seed = 2017;
  return profile;
}

Result<CityProfile> CityProfileByName(const std::string& name) {
  if (name == "beijing") return BeijingProfile();
  if (name == "hangzhou") return HangzhouProfile();
  return Status::NotFound("unknown city '" + name +
                          "' (valid: beijing, hangzhou)");
}

}  // namespace ftoa
