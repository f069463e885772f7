// Spatiotemporal typing: the paper partitions time into slots and space into
// grid areas (Section 3.1.1); a (slot, area) pair is the *type* of a
// predicted node, and online objects occupy/associate guide nodes of their
// own type (Algorithms 2-3).

#ifndef FTOA_SPATIAL_SPACETIME_H_
#define FTOA_SPATIAL_SPACETIME_H_

#include <cstdint>

#include "spatial/grid.h"
#include "spatial/point.h"

namespace ftoa {

/// Dense id of a (slot, area) type: type = slot * num_areas + area.
using TypeId = int32_t;

/// Partition of the time horizon [0, horizon) into `num_slots` equal slots.
class SlotSpec {
 public:
  SlotSpec() = default;

  /// Both arguments must be positive.
  SlotSpec(double horizon, int num_slots);

  double horizon() const { return horizon_; }
  int num_slots() const { return num_slots_; }
  double slot_duration() const { return slot_duration_; }

  /// Slot containing time `t`; times outside the horizon are clamped.
  int SlotOf(double t) const;

  /// Start time of a slot.
  double SlotStart(int slot) const { return slot * slot_duration_; }

  /// Midpoint of a slot — the representative start time of the slot's
  /// predicted objects when building the offline guide.
  double SlotMidpoint(int slot) const {
    return (slot + 0.5) * slot_duration_;
  }

 private:
  double horizon_ = 1.0;
  int num_slots_ = 1;
  double slot_duration_ = 1.0;
};

/// Exact equality of the horizon and the slot count.
inline bool operator==(const SlotSpec& a, const SlotSpec& b) {
  return a.horizon() == b.horizon() && a.num_slots() == b.num_slots();
}

/// Combines a SlotSpec and a GridSpec into the type space of the paper's
/// prediction matrices (alpha slots x beta areas).
class SpacetimeSpec {
 public:
  SpacetimeSpec() = default;
  SpacetimeSpec(const SlotSpec& slots, const GridSpec& grid)
      : slots_(slots), grid_(grid) {}

  const SlotSpec& slots() const { return slots_; }
  const GridSpec& grid() const { return grid_; }

  int num_slots() const { return slots_.num_slots(); }
  int num_areas() const { return grid_.num_cells(); }
  int num_types() const { return num_slots() * num_areas(); }

  /// Type of an object appearing at `location` at time `t`.
  TypeId TypeOf(Point location, double t) const {
    return TypeAt(slots_.SlotOf(t), grid_.CellOf(location));
  }

  /// Type from explicit slot/area indices.
  TypeId TypeAt(int slot, CellId area) const {
    return static_cast<TypeId>(slot) * num_areas() + area;
  }

  int SlotOfType(TypeId type) const { return type / num_areas(); }
  CellId AreaOfType(TypeId type) const { return type % num_areas(); }

  /// Representative location of a type (its cell center).
  Point RepresentativeLocation(TypeId type) const {
    return grid_.CellCenter(AreaOfType(type));
  }

  /// Representative start time of a type (its slot midpoint).
  double RepresentativeTime(TypeId type) const {
    return slots_.SlotMidpoint(SlotOfType(type));
  }

 private:
  SlotSpec slots_;
  GridSpec grid_;
};

inline bool operator==(const SpacetimeSpec& a, const SpacetimeSpec& b) {
  return a.slots() == b.slots() && a.grid() == b.grid();
}

}  // namespace ftoa

#endif  // FTOA_SPATIAL_SPACETIME_H_
