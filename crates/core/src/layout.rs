//! Layouts: the search space of Flood's self-optimization.
//!
//! A layout `L = (O, {c_i})` is an ordering `O` of the indexed dimensions —
//! the last entry is the *sort dimension*, the rest form the grid — plus the
//! number of columns `c_i` for each grid dimension (§4). Dimensions of the
//! table absent from `O` are not indexed at all (Flood "chooses not to
//! include the least frequently filtered dimensions", §7.5); their filters
//! are applied during the scan step.
//!
//! Paper map — which experiment exercises what:
//! - [`Layout::new`] (grid + sort dimension) is the full §4 design; every
//!   learned index in `repro fig7`–`fig12` is built from one.
//! - [`Layout::histogram`] (no sort dimension) is the Fig 11 ablation's
//!   "Simple Grid" starting point.
//! - [`Layout::with_cols`] rescales column counts while keeping the
//!   ordering — Fig 14's cells-vs-time sweep and Fig 8's size/time
//!   frontier both use it to move along one axis of the search space.
//! - The total cell count ([`Layout::num_cells`]) is the x-axis of Fig 14
//!   and the size knob behind Fig 8.
//! - [`Layout::with_fds`] (extension, beyond the paper) attaches the soft
//!   functional dependencies the built index tightens through — the ones
//!   the layout search priced (see [`crate::correlation`]).

use serde::{Deserialize, Serialize};

/// A soft functional dependency a layout carries: filters on `dep` are
/// routed through `host`, an indexed dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FdPair {
    /// The indexed dimension the dependent's filters are routed through.
    pub host: usize,
    /// The dependent dimension.
    pub dep: usize,
}

/// A Flood layout: dimension ordering plus per-grid-dimension column counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Layout {
    /// Indexed dimensions in grid order; the **last** entry is the sort
    /// dimension. May be a subset of the table's dimensions.
    order: Vec<usize>,
    /// `cols[i]` = number of columns for grid dimension `order[i]`
    /// (`cols.len() == order.len() - 1`). Every entry is ≥ 1; a dimension
    /// with a single column is effectively unpartitioned.
    cols: Vec<usize>,
    /// Soft FDs the index builds exact envelopes for; every host is in
    /// `order`. Empty unless attached with [`Layout::with_fds`].
    fds: Vec<FdPair>,
}

impl Layout {
    /// Create a layout. `order` lists the indexed dimensions (sort dimension
    /// last); `cols` gives column counts for the `order.len() - 1` grid
    /// dimensions.
    ///
    /// # Panics
    /// Panics if `order` is empty or contains duplicates, if `cols` has the
    /// wrong length, or any column count is zero.
    pub fn new(order: Vec<usize>, cols: Vec<usize>) -> Self {
        assert!(
            !order.is_empty(),
            "layout must index at least one dimension"
        );
        assert_eq!(
            cols.len(),
            order.len() - 1,
            "need one column count per grid dimension"
        );
        Self::validate(order, cols)
    }

    /// A *histogram* layout: every dimension in `order` is gridded and there
    /// is no sort dimension (`cols.len() == order.len()`). This is the
    /// "Simple Grid" baseline of the Fig 11 ablation — a d-dimensional
    /// histogram without within-cell ordering or refinement.
    pub fn histogram(order: Vec<usize>, cols: Vec<usize>) -> Self {
        assert!(
            !order.is_empty(),
            "layout must index at least one dimension"
        );
        assert_eq!(
            cols.len(),
            order.len(),
            "histogram layouts grid every dimension"
        );
        Self::validate(order, cols)
    }

    fn validate(order: Vec<usize>, cols: Vec<usize>) -> Self {
        let mut seen = order.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), order.len(), "duplicate dimension in layout");
        assert!(cols.iter().all(|&c| c >= 1), "column counts must be >= 1");
        Layout {
            order,
            cols,
            fds: Vec::new(),
        }
    }

    /// This layout carrying `fds`. The layout search attaches the FDs it
    /// priced ([`CorrelationModel::attach`](crate::correlation::CorrelationModel::attach));
    /// a dependent beyond the table's dimensions is caught by
    /// [`FloodIndex::build`](crate::index::FloodIndex::build), like any
    /// other out-of-bounds dimension.
    ///
    /// # Panics
    /// Panics if an FD's host is not indexed or its dependent is its host.
    pub fn with_fds(mut self, fds: Vec<FdPair>) -> Self {
        for f in &fds {
            assert!(
                self.order.contains(&f.host),
                "FD host {} is not indexed",
                f.host
            );
            assert!(f.dep != f.host, "FD dependent {} is its own host", f.dep);
        }
        self.fds = fds;
        self
    }

    /// The soft FDs this layout carries.
    #[inline]
    pub fn fds(&self) -> &[FdPair] {
        &self.fds
    }

    /// A layout that sorts by a single dimension (no grid) — Flood
    /// degenerates to a learned clustered index.
    pub fn sort_only(sort_dim: usize) -> Self {
        Layout::new(vec![sort_dim], vec![])
    }

    /// Whether the layout has a sort dimension (false for histogram
    /// layouts, where every dimension is gridded).
    #[inline]
    pub fn has_sort_dim(&self) -> bool {
        self.cols.len() + 1 == self.order.len()
    }

    /// The indexed dimensions in grid order, sort dimension last.
    #[inline]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The grid dimensions (all of `order` except the last; every dimension
    /// for histogram layouts).
    #[inline]
    pub fn grid_dims(&self) -> &[usize] {
        &self.order[..self.cols.len()]
    }

    /// The sort dimension.
    #[inline]
    pub fn sort_dim(&self) -> usize {
        *self.order.last().expect("layout is non-empty")
    }

    /// Column counts, aligned with [`Layout::grid_dims`].
    #[inline]
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Column count for grid dimension at position `i` of the ordering.
    #[inline]
    pub fn col_count(&self, i: usize) -> usize {
        self.cols[i]
    }

    /// Total number of grid cells (product of column counts; 1 when there
    /// are no grid dimensions).
    pub fn num_cells(&self) -> usize {
        self.cols.iter().product::<usize>().max(1)
    }

    /// Number of indexed dimensions (grid dims + sort dim).
    pub fn num_dims(&self) -> usize {
        self.order.len()
    }

    /// A copy with different column counts (same ordering, same FDs).
    pub fn with_cols(&self, cols: Vec<usize>) -> Self {
        Layout::new(self.order.clone(), cols).with_fds(self.fds.clone())
    }
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "grid[")?;
        for (i, (&d, &c)) in self.grid_dims().iter().zip(&self.cols).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "d{d}×{c}")?;
        }
        write!(f, "] sort=d{}", self.sort_dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let l = Layout::new(vec![2, 0, 1], vec![4, 8]);
        assert_eq!(l.grid_dims(), &[2, 0]);
        assert_eq!(l.sort_dim(), 1);
        assert_eq!(l.num_cells(), 32);
        assert_eq!(l.num_dims(), 3);
    }

    #[test]
    fn sort_only_layout() {
        let l = Layout::sort_only(3);
        assert_eq!(l.grid_dims(), &[] as &[usize]);
        assert_eq!(l.sort_dim(), 3);
        assert_eq!(l.num_cells(), 1);
    }

    #[test]
    fn display() {
        let l = Layout::new(vec![1, 0], vec![16]);
        assert_eq!(l.to_string(), "grid[d1×16] sort=d0");
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_dims_panic() {
        let _ = Layout::new(vec![0, 0], vec![4]);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn wrong_cols_len_panics() {
        let _ = Layout::new(vec![0, 1], vec![4, 4]);
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn zero_cols_panic() {
        let _ = Layout::new(vec![0, 1], vec![0]);
    }

    #[test]
    fn with_cols_keeps_order() {
        let fds = vec![FdPair { host: 0, dep: 3 }];
        let l = Layout::new(vec![2, 1, 0], vec![2, 2]).with_fds(fds.clone());
        let l2 = l.with_cols(vec![5, 6]);
        assert_eq!(l2.order(), &[2, 1, 0]);
        assert_eq!(l2.num_cells(), 30);
        assert_eq!(l2.fds(), &fds[..]);
    }

    #[test]
    #[should_panic(expected = "FD host 3 is not indexed")]
    fn fd_on_unindexed_host_panics() {
        let _ = Layout::new(vec![0, 1], vec![4]).with_fds(vec![FdPair { host: 3, dep: 2 }]);
    }

    #[test]
    #[should_panic(expected = "FD dependent 1 is its own host")]
    fn fd_hosting_itself_panics() {
        let _ = Layout::new(vec![0, 1], vec![4]).with_fds(vec![FdPair { host: 1, dep: 1 }]);
    }

    #[test]
    fn histogram_layout_grids_everything() {
        let l = Layout::histogram(vec![0, 1, 2], vec![4, 4, 4]);
        assert!(!l.has_sort_dim());
        assert_eq!(l.grid_dims(), &[0, 1, 2]);
        assert_eq!(l.num_cells(), 64);
        let std = Layout::new(vec![0, 1, 2], vec![4, 4]);
        assert!(std.has_sort_dim());
        assert_eq!(std.grid_dims(), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "grid every dimension")]
    fn histogram_rejects_short_cols() {
        let _ = Layout::histogram(vec![0, 1], vec![4]);
    }
}
