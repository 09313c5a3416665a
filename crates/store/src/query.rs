//! The shared query model: conjunctions of per-dimension inclusive ranges.
//!
//! A filter predicate in the paper is a set of ranges `[qs_i, qe_i]` joined by
//! ANDs (§3). Equality predicates are ranges with `lo == hi`; dimensions
//! absent from the query are unbounded (`0..=u64::MAX`). The intersection of
//! the ranges defines a hyper-rectangle.

use serde::{Deserialize, Serialize};

/// A range query: for each of `d` dimensions an inclusive `[lo, hi]` bound.
///
/// `bounds[i] = None` means dimension `i` is not filtered. All indexes in the
/// workspace execute exactly this query type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangeQuery {
    bounds: Vec<Option<(u64, u64)>>,
}

impl RangeQuery {
    /// An unconstrained query over `dims` dimensions (matches everything).
    pub fn all(dims: usize) -> Self {
        RangeQuery {
            bounds: vec![None; dims],
        }
    }

    /// Add an inclusive range filter on `dim`. Returns `self` for chaining.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `dim` is out of bounds.
    pub fn with_range(mut self, dim: usize, lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "range lo {lo} > hi {hi} on dim {dim}");
        self.bounds[dim] = Some((lo, hi));
        self
    }

    /// Add an equality filter (`lo == hi == value`) on `dim`.
    pub fn with_eq(self, dim: usize, value: u64) -> Self {
        self.with_range(dim, value, value)
    }

    /// Intersect `[lo, hi]` into the existing filter on `dim` (or install
    /// it if the dimension was unfiltered). Returns `false` — leaving the
    /// query unchanged — when the intersection would be empty, so callers
    /// deriving implied bounds (correlation rewriting) stay conservative.
    pub fn tighten(&mut self, dim: usize, lo: u64, hi: u64) -> bool {
        let (nlo, nhi) = match self.bound(dim) {
            Some((a, b)) => (a.max(lo), b.min(hi)),
            None => (lo, hi),
        };
        if nlo > nhi {
            return false;
        }
        self.bounds[dim] = Some((nlo, nhi));
        true
    }

    /// Number of dimensions this query is defined over.
    #[inline]
    pub fn dims(&self) -> usize {
        self.bounds.len()
    }

    /// The filter on `dim`, if any.
    #[inline]
    pub fn bound(&self, dim: usize) -> Option<(u64, u64)> {
        self.bounds.get(dim).copied().flatten()
    }

    /// Lower bound on `dim` (0 when unfiltered) — the "lower-left" corner qs.
    #[inline]
    pub fn lo(&self, dim: usize) -> u64 {
        self.bound(dim).map_or(0, |(lo, _)| lo)
    }

    /// Upper bound on `dim` (`u64::MAX` when unfiltered) — the corner qe.
    #[inline]
    pub fn hi(&self, dim: usize) -> u64 {
        self.bound(dim).map_or(u64::MAX, |(_, hi)| hi)
    }

    /// Whether dimension `dim` carries a filter.
    #[inline]
    pub fn filters(&self, dim: usize) -> bool {
        self.bound(dim).is_some()
    }

    /// Indices of the dimensions that carry filters.
    pub fn filtered_dims(&self) -> Vec<usize> {
        (0..self.dims()).filter(|&d| self.filters(d)).collect()
    }

    /// The filters as `(dim, lo, hi)` per-row checks, in dimension order —
    /// the form the scan kernels take.
    pub fn checks(&self) -> Vec<(usize, u64, u64)> {
        self.bounds
            .iter()
            .enumerate()
            .filter_map(|(d, b)| b.map(|(lo, hi)| (d, lo, hi)))
            .collect()
    }

    /// Number of filtered dimensions.
    pub fn num_filtered(&self) -> usize {
        self.bounds.iter().filter(|b| b.is_some()).count()
    }

    /// Whether the point `p` (one value per dimension) matches every filter.
    #[inline]
    pub fn matches(&self, p: &[u64]) -> bool {
        debug_assert_eq!(p.len(), self.dims());
        self.bounds.iter().zip(p).all(|(b, &v)| match b {
            Some((lo, hi)) => *lo <= v && v <= *hi,
            None => true,
        })
    }

    /// Whether a single value matches the filter on `dim`.
    #[inline]
    pub fn matches_dim(&self, dim: usize, v: u64) -> bool {
        match self.bounds[dim] {
            Some((lo, hi)) => lo <= v && v <= hi,
            None => true,
        }
    }

    /// The query hyper-rectangle as explicit `[lo, hi]` corners.
    pub fn rect(&self) -> QueryRect {
        QueryRect {
            lo: (0..self.dims()).map(|d| self.lo(d)).collect(),
            hi: (0..self.dims()).map(|d| self.hi(d)).collect(),
        }
    }
}

/// An explicit hyper-rectangle: the corners `qs` (lo) and `qe` (hi) of §3.2.1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRect {
    /// Lower-left corner (per-dimension inclusive lower bounds).
    pub lo: Vec<u64>,
    /// Upper-right corner (per-dimension inclusive upper bounds).
    pub hi: Vec<u64>,
}

impl QueryRect {
    /// Whether this rectangle fully contains the box `[b_lo, b_hi]`.
    pub fn contains_box(&self, b_lo: &[u64], b_hi: &[u64]) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(b_lo.iter().zip(b_hi))
            .all(|((qlo, qhi), (blo, bhi))| qlo <= blo && bhi <= qhi)
    }

    /// Whether this rectangle intersects the box `[b_lo, b_hi]`.
    pub fn intersects_box(&self, b_lo: &[u64], b_hi: &[u64]) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(b_lo.iter().zip(b_hi))
            .all(|((qlo, qhi), (blo, bhi))| qlo <= bhi && blo <= qhi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_matches_everything() {
        let q = RangeQuery::all(3);
        assert!(q.matches(&[0, u64::MAX, 42]));
        assert_eq!(q.num_filtered(), 0);
    }

    #[test]
    fn range_filter() {
        let q = RangeQuery::all(2).with_range(0, 10, 20);
        assert!(q.matches(&[10, 0]));
        assert!(q.matches(&[20, u64::MAX]));
        assert!(!q.matches(&[9, 0]));
        assert!(!q.matches(&[21, 0]));
        assert_eq!(q.filtered_dims(), vec![0]);
    }

    #[test]
    fn equality_is_degenerate_range() {
        let q = RangeQuery::all(2).with_eq(1, 7);
        assert!(q.matches(&[999, 7]));
        assert!(!q.matches(&[999, 8]));
        assert_eq!(q.bound(1), Some((7, 7)));
    }

    #[test]
    fn checks_list_each_filter_in_dimension_order() {
        let q = RangeQuery::all(4).with_range(2, 5, 9).with_eq(0, 3);
        assert_eq!(q.checks(), vec![(0, 3, 3), (2, 5, 9)]);
        assert!(RangeQuery::all(2).checks().is_empty());
    }

    #[test]
    fn corners() {
        let q = RangeQuery::all(3).with_range(1, 5, 9);
        let r = q.rect();
        assert_eq!(r.lo, vec![0, 5, 0]);
        assert_eq!(r.hi, vec![u64::MAX, 9, u64::MAX]);
    }

    #[test]
    fn rect_containment_and_intersection() {
        let q = RangeQuery::all(2).with_range(0, 10, 20).with_range(1, 0, 5);
        let r = q.rect();
        assert!(r.contains_box(&[12, 1], &[18, 4]));
        assert!(!r.contains_box(&[12, 1], &[25, 4]));
        assert!(r.intersects_box(&[18, 4], &[30, 9]));
        assert!(!r.intersects_box(&[21, 0], &[30, 5]));
    }

    #[test]
    #[should_panic(expected = "lo")]
    fn inverted_range_panics() {
        let _ = RangeQuery::all(1).with_range(0, 5, 3);
    }
}
