// Uniform grid partition of the service region ("grid areas" in the paper,
// Section 3.1.1): the rectangle [0, width) x [0, height) divided into
// cells_x * cells_y equal cells, identified by a dense integer id.

#ifndef FTOA_SPATIAL_GRID_H_
#define FTOA_SPATIAL_GRID_H_

#include <cstdint>
#include <cstddef>

#include "spatial/point.h"

namespace ftoa {

/// Dense id of a grid cell; row-major: id = cy * cells_x + cx.
using CellId = int32_t;

/// Immutable description of a uniform grid over a rectangular region.
class GridSpec {
 public:
  GridSpec() = default;

  /// A grid of cells_x x cells_y cells over [0,width) x [0,height).
  /// All arguments must be positive.
  GridSpec(double width, double height, int cells_x, int cells_y);

  double width() const { return width_; }
  double height() const { return height_; }
  int cells_x() const { return cells_x_; }
  int cells_y() const { return cells_y_; }
  int num_cells() const { return cells_x_ * cells_y_; }
  double cell_width() const { return cell_width_; }
  double cell_height() const { return cell_height_; }

  /// True iff `p` lies inside the region.
  bool Contains(Point p) const {
    return p.x >= 0.0 && p.x < width_ && p.y >= 0.0 && p.y < height_;
  }

  /// Clamps `p` into the region (just inside the open upper edges).
  Point Clamp(Point p) const;

  /// Cell containing `p`; out-of-region points are clamped first, so the
  /// result is always a valid id.
  CellId CellOf(Point p) const;

  /// Column index of a cell id.
  int CellX(CellId id) const { return id % cells_x_; }
  /// Row index of a cell id.
  int CellY(CellId id) const { return id / cells_x_; }
  /// Cell id from column/row (must be in range).
  CellId CellAt(int cx, int cy) const { return cy * cells_x_ + cx; }
  /// True iff the column/row pair is inside the grid.
  bool ValidCell(int cx, int cy) const {
    return cx >= 0 && cx < cells_x_ && cy >= 0 && cy < cells_y_;
  }

  /// Center point of a cell — the representative location of the cell's
  /// predicted objects when building the offline guide.
  Point CellCenter(CellId id) const;

  /// Shortest distance from point `p` to any point of cell `id` (0 when `p`
  /// is inside). Used for best-first ring expansion in nearest queries.
  double DistanceToCell(Point p, CellId id) const;

 private:
  double width_ = 1.0;
  double height_ = 1.0;
  int cells_x_ = 1;
  int cells_y_ = 1;
  double cell_width_ = 1.0;
  double cell_height_ = 1.0;
};

/// Exact equality of the region and the cell counts (cell sizes derive
/// from them).
inline bool operator==(const GridSpec& a, const GridSpec& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         a.cells_x() == b.cells_x() && a.cells_y() == b.cells_y();
}

}  // namespace ftoa

#endif  // FTOA_SPATIAL_GRID_H_
