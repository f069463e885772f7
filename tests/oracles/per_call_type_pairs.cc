#include "oracles/per_call_type_pairs.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace ftoa {
namespace testing {

std::vector<TypePairEdge> PerCallTypePairs(const PredictionMatrix& prediction,
                                           double velocity,
                                           const GuideOptions& options) {
  std::vector<TypePairEdge> pairs;
  const SpacetimeSpec& st = prediction.spacetime();
  const GridSpec& grid = st.grid();
  const SlotSpec& slots = st.slots();
  const int num_areas = st.num_areas();
  const double dw = options.worker_duration;
  const double dr = options.task_duration;
  const double rep_slack = options.representative_slack;

  // Per-slot list of cells with predicted tasks, for sparse iteration when
  // the feasibility disk covers most of the grid.
  std::vector<std::vector<CellId>> task_cells_by_slot(
      static_cast<size_t>(slots.num_slots()));
  for (int slot = 0; slot < slots.num_slots(); ++slot) {
    for (CellId cell = 0; cell < num_areas; ++cell) {
      if (prediction.tasks_at(st.TypeAt(slot, cell)) > 0) {
        task_cells_by_slot[static_cast<size_t>(slot)].push_back(cell);
      }
    }
  }

  for (int wslot = 0; wslot < slots.num_slots(); ++wslot) {
    const double sw = slots.SlotMidpoint(wslot);
    // Candidate task slots: representatives must satisfy
    //   sr < sw + dw (+ slack)  and  dr - (sw - sr) (+ slack) >= 0.
    const int slot_lo = std::max(
        0, slots.SlotOf(std::max(0.0, sw - dr - rep_slack)) - 1);
    const int slot_hi = std::min(slots.num_slots() - 1,
                                 slots.SlotOf(sw + dw + rep_slack) + 1);

    for (CellId wcell = 0; wcell < num_areas; ++wcell) {
      const TypeId wtype = st.TypeAt(wslot, wcell);
      if (prediction.workers_at(wtype) <= 0) continue;
      const Point wloc = grid.CellCenter(wcell);

      for (int tslot = slot_lo; tslot <= slot_hi; ++tslot) {
        const double sr = slots.SlotMidpoint(tslot);
        if (!(sr < sw + dw + rep_slack)) continue;
        const double slack = dr - (sw - sr) + rep_slack;
        if (slack < 0.0) continue;
        const double radius = slack * velocity;

        // Scan the bounding box of the feasibility disk or the slot's
        // nonempty task cells, whichever is smaller.
        const int cx_lo = std::max(
            0, static_cast<int>(
                   std::floor((wloc.x - radius) / grid.cell_width())));
        const int cx_hi = std::min(
            grid.cells_x() - 1,
            static_cast<int>(
                std::floor((wloc.x + radius) / grid.cell_width())));
        const int cy_lo = std::max(
            0, static_cast<int>(
                   std::floor((wloc.y - radius) / grid.cell_height())));
        const int cy_hi = std::min(
            grid.cells_y() - 1,
            static_cast<int>(
                std::floor((wloc.y + radius) / grid.cell_height())));
        const int64_t box_cells = static_cast<int64_t>(cx_hi - cx_lo + 1) *
                                  (cy_hi - cy_lo + 1);
        const auto& sparse = task_cells_by_slot[static_cast<size_t>(tslot)];

        auto consider = [&](CellId tcell) {
          const TypeId ttype = st.TypeAt(tslot, tcell);
          if (prediction.tasks_at(ttype) <= 0) return;
          const double d = Distance(wloc, grid.CellCenter(tcell));
          if (d / velocity <= slack) {
            pairs.push_back(TypePairEdge{wtype, ttype});
          }
        };

        if (box_cells <= static_cast<int64_t>(sparse.size())) {
          for (int cy = cy_lo; cy <= cy_hi; ++cy) {
            for (int cx = cx_lo; cx <= cx_hi; ++cx) {
              consider(grid.CellAt(cx, cy));
            }
          }
        } else {
          for (CellId tcell : sparse) consider(tcell);
        }
      }
    }
  }
  return pairs;
}

}  // namespace testing
}  // namespace ftoa
