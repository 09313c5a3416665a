//! Grid arithmetic: mapping column tuples to cell ids and enumerating the
//! cells that intersect a query rectangle (§3.2.1 projection).
//!
//! Cells are numbered row-major along the layout's dimension ordering, i.e.
//! "a depth-first traversal of the cells along the dimension ordering"
//! (§3.1): `order[0]` is the outermost (largest stride) dimension.

use crate::layout::Layout;
use serde::{Deserialize, Serialize};

/// Precomputed strides for a layout's grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Grid {
    cols: Vec<usize>,
    strides: Vec<usize>,
    num_cells: usize,
}

impl Grid {
    /// Build the grid for `layout`.
    pub fn new(layout: &Layout) -> Self {
        let cols = layout.cols().to_vec();
        let mut strides = vec![1usize; cols.len()];
        for i in (0..cols.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * cols[i + 1];
        }
        let num_cells = cols.iter().product::<usize>().max(1);
        Grid {
            cols,
            strides,
            num_cells,
        }
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Column counts per grid dimension (ordering positions).
    #[inline]
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// What one column step in grid dimension `i` adds to the cell id.
    #[inline]
    pub fn stride(&self, i: usize) -> usize {
        self.strides[i]
    }

    /// Cell id of a column tuple.
    ///
    /// # Panics
    /// Debug-panics when a column exceeds its dimension's count.
    #[inline]
    pub fn cell_id(&self, cols: &[usize]) -> usize {
        debug_assert_eq!(cols.len(), self.cols.len());
        let mut id = 0;
        for (i, &c) in cols.iter().enumerate() {
            debug_assert!(c < self.cols[i]);
            id += c * self.strides[i];
        }
        id
    }

    /// Column tuple of a cell id (diagnostics / tests).
    pub fn cell_coords(&self, mut id: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.cols.len());
        for &s in &self.strides {
            out.push(id / s);
            id %= s;
        }
        out
    }

    /// Whether cell `id`'s coordinates all lie inside the inclusive
    /// per-dimension column `ranges` — [`Grid::cell_coords`] without the
    /// allocation, for per-row hot paths.
    #[inline]
    pub fn cell_in_ranges(&self, mut id: usize, ranges: &[(usize, usize)]) -> bool {
        debug_assert_eq!(ranges.len(), self.strides.len());
        for (&s, &(lo, hi)) in self.strides.iter().zip(ranges) {
            let c = id / s;
            id %= s;
            if c < lo || c > hi {
                return false;
            }
        }
        true
    }

    /// Number of cells in the hyper-rectangle spanned by the inclusive
    /// per-dimension column `ranges` (the cost model's N_c).
    pub fn cells_in_ranges(ranges: &[(usize, usize)]) -> usize {
        ranges
            .iter()
            .map(|&(lo, hi)| hi - lo + 1)
            .product::<usize>()
            .max(1)
    }

    /// Invoke `f(cell_id, cols)` for every cell in the cross product of the
    /// inclusive per-dimension column `ranges`, in ascending cell-id order.
    ///
    /// # Panics
    /// Debug-panics when a range is inverted or out of bounds.
    pub fn for_each_cell(&self, ranges: &[(usize, usize)], mut f: impl FnMut(usize, &[usize])) {
        debug_assert_eq!(ranges.len(), self.cols.len());
        if self.cols.is_empty() {
            f(0, &[]);
            return;
        }
        debug_assert!(ranges
            .iter()
            .zip(&self.cols)
            .all(|(&(lo, hi), &c)| lo <= hi && hi < c));
        let mut cur: Vec<usize> = ranges.iter().map(|&(lo, _)| lo).collect();
        let mut id = self.cell_id(&cur);
        loop {
            f(id, &cur);
            // Odometer increment, last dimension fastest (stride 1).
            let mut dim = self.cols.len();
            loop {
                if dim == 0 {
                    return;
                }
                dim -= 1;
                if cur[dim] < ranges[dim].1 {
                    cur[dim] += 1;
                    id += self.strides[dim];
                    break;
                }
                // Reset and carry.
                id -= (cur[dim] - ranges[dim].0) * self.strides[dim];
                cur[dim] = ranges[dim].0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;

    fn grid(cols: Vec<usize>) -> Grid {
        let d = cols.len() + 1;
        let order: Vec<usize> = (0..d).collect();
        Grid::new(&Layout::new(order, cols))
    }

    #[test]
    fn strides_row_major() {
        let g = grid(vec![3, 4, 5]);
        assert_eq!(g.num_cells(), 60);
        assert_eq!(g.cell_id(&[0, 0, 0]), 0);
        assert_eq!(g.cell_id(&[0, 0, 1]), 1);
        assert_eq!(g.cell_id(&[0, 1, 0]), 5);
        assert_eq!(g.cell_id(&[1, 0, 0]), 20);
        assert_eq!(g.cell_id(&[2, 3, 4]), 59);
    }

    #[test]
    fn coords_roundtrip() {
        let g = grid(vec![3, 4, 5]);
        for id in 0..60 {
            assert_eq!(g.cell_id(&g.cell_coords(id)), id);
        }
    }

    #[test]
    fn enumeration_is_sorted_and_complete() {
        let g = grid(vec![3, 4]);
        let mut seen = Vec::new();
        g.for_each_cell(&[(1, 2), (0, 3)], |id, cols| {
            assert_eq!(g.cell_coords(id), cols);
            seen.push(id);
        });
        assert_eq!(seen.len(), 8);
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "not ascending: {seen:?}"
        );
        // Expected: rows 1..=2 × cols 0..=3 → ids 4..=7 and 8..=11.
        assert_eq!(seen, vec![4, 5, 6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn single_cell_range() {
        let g = grid(vec![4, 4]);
        let mut seen = Vec::new();
        g.for_each_cell(&[(2, 2), (3, 3)], |id, _| seen.push(id));
        assert_eq!(seen, vec![11]);
    }

    #[test]
    fn no_grid_dims_single_cell() {
        let g = Grid::new(&Layout::sort_only(0));
        assert_eq!(g.num_cells(), 1);
        let mut seen = Vec::new();
        g.for_each_cell(&[], |id, cols| {
            assert!(cols.is_empty());
            seen.push(id)
        });
        assert_eq!(seen, vec![0]);
    }

    #[test]
    fn cells_in_ranges_product() {
        assert_eq!(Grid::cells_in_ranges(&[(0, 2), (1, 1), (0, 4)]), 15);
        assert_eq!(Grid::cells_in_ranges(&[]), 1);
    }

    #[test]
    fn full_enumeration_covers_grid() {
        let g = grid(vec![2, 3, 2]);
        let mut n = 0;
        g.for_each_cell(&[(0, 1), (0, 2), (0, 1)], |_, _| n += 1);
        assert_eq!(n, g.num_cells());
    }
}
