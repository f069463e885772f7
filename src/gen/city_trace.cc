#include "gen/city_trace.h"

#include <cmath>
#include <cstdint>
#include <numeric>

#include "util/rng.h"

namespace ftoa {

namespace {

/// Gaussian bump value at squared distance `d2` with spread `sigma`.
inline double Bump(double d2, double sigma) {
  return std::exp(-d2 / (2.0 * sigma * sigma));
}

}  // namespace

CityTraceGenerator::CityTraceGenerator(CityProfile profile)
    : profile_(std::move(profile)),
      num_cells_(profile_.grid_x * profile_.grid_y) {
  // Hotspot geometry is derived deterministically from the city seed so the
  // two built-in profiles produce genuinely different cities.
  Rng rng(profile_.seed);
  const double jitter = 0.06;
  auto jittered = [&](double v) {
    return v + rng.NextDouble(-jitter, jitter);
  };
  // CBD: strong evening outflow (workers finishing, calling taxis).
  hotspots_.push_back(Hotspot{jittered(0.70), jittered(0.60), 0.07, 0.10,
                              0.3, 2.6});
  // Residential belt: strong morning outflow.
  hotspots_.push_back(Hotspot{jittered(0.22), jittered(0.28), 0.09, 0.10,
                              2.4, 0.3});
  hotspots_.push_back(Hotspot{jittered(0.25), jittered(0.75), 0.08, 0.08,
                              2.0, 0.25});
  // Airport: steady with a mild evening bias.
  hotspots_.push_back(Hotspot{jittered(0.88), jittered(0.15), 0.05, 0.08,
                              0.2, 0.8});
  // Entertainment district: evening/night.
  hotspots_.push_back(Hotspot{jittered(0.60), jittered(0.85), 0.06, 0.06,
                              0.1, 1.6});

  // Weather: daily temperature sinusoid + seasonal drift, and a two-state
  // Markov rain process at slot granularity.
  const int slots = profile_.slots_per_day;
  weather_.resize(static_cast<size_t>(profile_.history_days) * slots);
  Rng weather_rng = rng.Fork(0xfeed);
  bool raining = false;
  for (int day = 0; day < profile_.history_days; ++day) {
    const double seasonal =
        18.0 + 6.0 * std::sin(2.0 * M_PI * day / 60.0) +
        weather_rng.NextGaussian(0.0, 1.5);
    for (int slot = 0; slot < slots; ++slot) {
      const double hour = 24.0 * slot / slots;
      WeatherSample sample;
      sample.temperature = seasonal +
                           5.0 * std::sin(2.0 * M_PI * (hour - 9.0) / 24.0) +
                           weather_rng.NextGaussian(0.0, 0.5);
      raining = raining ? weather_rng.NextBool(0.75)
                        : weather_rng.NextBool(0.03);
      sample.precipitation =
          raining ? weather_rng.NextExponential(0.5) : 0.0;
      weather_[static_cast<size_t>(day) * slots + slot] = sample;
    }
  }
}

SpacetimeSpec CityTraceGenerator::DaySpacetime() const {
  const GridSpec grid(static_cast<double>(profile_.grid_x),
                      static_cast<double>(profile_.grid_y), profile_.grid_x,
                      profile_.grid_y);
  const SlotSpec slots(static_cast<double>(profile_.slots_per_day),
                       profile_.slots_per_day);
  return SpacetimeSpec(slots, grid);
}

const WeatherSample& CityTraceGenerator::WeatherAt(int day, int slot) const {
  return weather_[static_cast<size_t>(day) * profile_.slots_per_day + slot];
}

double CityTraceGenerator::TimeCurve(DemandSide side, int dow,
                                     int slot) const {
  const double hour = 24.0 * slot / profile_.slots_per_day;
  const bool weekend = dow >= 5;
  // Workers ramp up slightly before demand does.
  const double shift = side == DemandSide::kWorkers ? 0.75 : 0.0;
  const double sharp = profile_.rush_hour_sharpness * (weekend ? 0.5 : 1.0);
  const double morning = sharp * Bump((hour + shift - 8.0) *
                                      (hour + shift - 8.0), 1.6);
  const double evening = sharp * Bump((hour + shift - 18.5) *
                                      (hour + shift - 18.5), 2.0);
  const double midday = 0.35 * Bump((hour - 13.0) * (hour - 13.0), 3.0);
  const double night = 0.08 + 0.12 * Bump((hour - 22.5) * (hour - 22.5), 2.0);
  double curve = night + midday + morning + evening;
  if (weekend) {
    curve = (curve + 0.25) * profile_.weekend_demand_factor;
  }
  return curve;
}

double CityTraceGenerator::SpatialDensity(DemandSide side, int slot,
                                          int cell) const {
  double hour = 24.0 * slot / profile_.slots_per_day;
  // Supply follows demand with a lag: drivers drift toward where tasks
  // *were*, so at any instant the two spatial distributions are offset.
  if (side == DemandSide::kWorkers) {
    hour -= profile_.worker_spatial_lag_hours;
    if (hour < 0.0) hour += 24.0;
  }
  const double morning_phase = Bump((hour - 8.0) * (hour - 8.0), 2.0);
  const double evening_phase = Bump((hour - 18.5) * (hour - 18.5), 2.5);
  const int cx = cell % profile_.grid_x;
  const int cy = cell / profile_.grid_x;
  const double fx = (cx + 0.5) / profile_.grid_x;
  const double fy = (cy + 0.5) / profile_.grid_y;
  // Workers cruise with a wider spread than point demand.
  const double sigma_scale = side == DemandSide::kWorkers ? 1.6 : 1.0;
  double density = 0.006;  // Uniform floor: demand exists everywhere.
  for (const Hotspot& h : hotspots_) {
    const double dx = fx - h.cx;
    const double dy = fy - h.cy;
    // Demand peaks where trips *originate*; idle supply accumulates where
    // the previous trips *ended* — the morning residential->CBD flow parks
    // taxis at the CBD while fresh demand is still residential, and the
    // evening flow does the reverse. Swapping the phase weights for the
    // worker side reproduces this displacement, the core reason
    // anticipatory dispatching beats wait-in-place on real platforms.
    const double weight =
        side == DemandSide::kWorkers
            ? h.base + h.evening * morning_phase + h.morning * evening_phase
            : h.base + h.morning * morning_phase + h.evening * evening_phase;
    density += weight * Bump(dx * dx + dy * dy, h.sigma * sigma_scale);
  }
  return density;
}

std::vector<double> CityTraceGenerator::Intensity(DemandSide side,
                                                  int day) const {
  const int slots = profile_.slots_per_day;
  const int dow = day % 7;
  std::vector<double> intensity(static_cast<size_t>(slots) * num_cells_,
                                0.0);

  // Normalize the time curve so that the configured daily total is hit in
  // expectation on a dry weekday.
  double curve_total = 0.0;
  for (int slot = 0; slot < slots; ++slot) {
    curve_total += TimeCurve(side, /*dow=*/1, slot);
  }
  const double daily_total =
      (side == DemandSide::kWorkers
           ? profile_.workers_per_day * profile_.supply_surplus
           : profile_.tasks_per_day);

  for (int slot = 0; slot < slots; ++slot) {
    // Spatial mixture normalized per slot.
    double density_total = 0.0;
    for (int cell = 0; cell < num_cells_; ++cell) {
      density_total += SpatialDensity(side, slot, cell);
    }
    const WeatherSample& weather = WeatherAt(day, slot);
    double weather_factor = 1.0;
    if (weather.precipitation > 0.1) {
      weather_factor = side == DemandSide::kTasks ? 1.25 : 0.85;
    }
    const double slot_total = daily_total *
                              TimeCurve(side, dow, slot) / curve_total *
                              weather_factor;
    for (int cell = 0; cell < num_cells_; ++cell) {
      intensity[static_cast<size_t>(slot) * num_cells_ + cell] =
          slot_total * SpatialDensity(side, slot, cell) / density_total;
    }
  }
  return intensity;
}

std::vector<int> CityTraceGenerator::SampleDayCounts(DemandSide side,
                                                     int day) const {
  const std::vector<double> intensity = Intensity(side, day);
  // Independent deterministic stream per (seed, day, side).
  Rng rng(profile_.seed ^ (0x517cc1b727220a95ULL * (day + 1)) ^
          (side == DemandSide::kWorkers ? 0x2545f4914f6cdd1dULL : 0));
  std::vector<int> counts(intensity.size(), 0);
  for (size_t i = 0; i < intensity.size(); ++i) {
    counts[i] = static_cast<int>(rng.NextPoisson(intensity[i]));
  }
  return counts;
}

DemandDataset CityTraceGenerator::GenerateHistory() const {
  DemandDataset data(profile_.history_days, profile_.slots_per_day,
                     num_cells_);
  for (int day = 0; day < profile_.history_days; ++day) {
    data.set_day_of_week(day, day % 7);
    const std::vector<int> workers =
        SampleDayCounts(DemandSide::kWorkers, day);
    const std::vector<int> tasks = SampleDayCounts(DemandSide::kTasks, day);
    for (int slot = 0; slot < profile_.slots_per_day; ++slot) {
      data.set_weather(day, slot, WeatherAt(day, slot));
      for (int cell = 0; cell < num_cells_; ++cell) {
        const size_t k = static_cast<size_t>(slot) * num_cells_ + cell;
        data.set_workers(day, slot, cell, workers[k]);
        data.set_tasks(day, slot, cell, tasks[k]);
      }
    }
  }
  return data;
}

Result<Instance> CityTraceGenerator::GenerateInstanceForDay(int day) const {
  if (day < 0 || day >= profile_.history_days) {
    return Status::OutOfRange("CityTraceGenerator: day outside the history");
  }
  const SpacetimeSpec spacetime = DaySpacetime();
  const GridSpec& grid = spacetime.grid();

  const std::vector<int> worker_counts =
      SampleDayCounts(DemandSide::kWorkers, day);
  const std::vector<int> task_counts =
      SampleDayCounts(DemandSide::kTasks, day);

  // Object placement within (slot, cell) is uniform; the stream is seeded
  // independently of the count draw so counts stay consistent with the
  // history.
  Rng rng(profile_.seed ^ 0x94d049bb133111ebULL ^
          (0x9e3779b97f4a7c15ULL * (day + 1)));

  std::vector<Worker> workers;
  std::vector<Task> tasks;
  workers.reserve(static_cast<size_t>(
      std::accumulate(worker_counts.begin(), worker_counts.end(), int64_t{0})));
  tasks.reserve(static_cast<size_t>(
      std::accumulate(task_counts.begin(), task_counts.end(), int64_t{0})));
  for (int slot = 0; slot < profile_.slots_per_day; ++slot) {
    for (int cell = 0; cell < num_cells_; ++cell) {
      const size_t k = static_cast<size_t>(slot) * num_cells_ + cell;
      const int cx = cell % profile_.grid_x;
      const int cy = cell / profile_.grid_x;
      auto sample_point = [&]() {
        return Point{(cx + rng.NextDouble()) * grid.cell_width(),
                     (cy + rng.NextDouble()) * grid.cell_height()};
      };
      auto sample_time = [&]() {
        return (slot + rng.NextDouble());
      };
      for (int i = 0; i < worker_counts[k]; ++i) {
        Worker w;
        w.location = sample_point();
        w.start = sample_time();
        w.duration = profile_.worker_duration;
        workers.push_back(w);
      }
      for (int i = 0; i < task_counts[k]; ++i) {
        Task r;
        r.location = sample_point();
        r.start = sample_time();
        r.duration = profile_.task_duration;
        tasks.push_back(r);
      }
    }
  }
  return Instance(spacetime, profile_.velocity, std::move(workers),
                  std::move(tasks));
}

}  // namespace ftoa
