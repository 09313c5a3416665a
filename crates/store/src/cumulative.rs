//! Cumulative-aggregation columns (§7.1, optimization 2).
//!
//! "our implementation allows indexes to speed up common aggregations like
//! SUM by including a column in which the i-th value is the cumulative
//! aggregation of all elements up to index i. In the case of an exact range,
//! the final aggregation result is simply the difference between the
//! cumulative aggregations at the range endpoints."

use crate::column::Column;
use serde::{Deserialize, Serialize};

/// Prefix sums of a column: `prefix[i] = sum(col[0..=i])` (wrapping).
///
/// Stored uncompressed — prefix sums grow monotonically, so block-delta
/// compression saves nothing on them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CumulativeColumn {
    prefix: Vec<u64>,
}

impl CumulativeColumn {
    /// Build prefix sums over `col`.
    pub fn build(col: &Column) -> Self {
        let mut prefix = Vec::with_capacity(col.len());
        let mut acc = 0u64;
        col.for_each_slice(0..col.len(), |vals| {
            prefix.extend(vals.iter().map(|&v| {
                acc = acc.wrapping_add(v);
                acc
            }));
        });
        CumulativeColumn { prefix }
    }

    /// Sum over the inclusive physical range `[start, end]` in O(1).
    ///
    /// # Panics
    /// Panics if `end >= len` or `start > end`.
    #[inline]
    pub fn range_sum(&self, start: usize, end: usize) -> u64 {
        assert!(start <= end && end < self.prefix.len());
        let hi = self.prefix[end];
        if start == 0 {
            hi
        } else {
            hi.wrapping_sub(self.prefix[start - 1])
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.prefix.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prefix.is_empty()
    }

    /// Heap size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.prefix.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_sums() {
        let col = Column::plain(vec![1, 2, 3, 4, 5]);
        let c = CumulativeColumn::build(&col);
        assert_eq!(c.range_sum(0, 4), 15);
        assert_eq!(c.range_sum(1, 3), 9);
        assert_eq!(c.range_sum(2, 2), 3);
        assert_eq!(c.range_sum(0, 0), 1);
    }

    #[test]
    fn matches_naive_on_compressed() {
        let vals: Vec<u64> = (0..500).map(|i| (i * 7919) % 1000).collect();
        let col = Column::compressed(&vals);
        let c = CumulativeColumn::build(&col);
        for (s, e) in [(0, 499), (10, 20), (100, 100), (0, 1), (250, 499)] {
            let naive: u64 = vals[s..=e].iter().sum();
            assert_eq!(c.range_sum(s, e), naive, "range [{s},{e}]");
        }
    }

    #[test]
    fn wrapping_behaviour() {
        let col = Column::plain(vec![u64::MAX, 5]);
        let c = CumulativeColumn::build(&col);
        assert_eq!(c.range_sum(1, 1), 5);
        assert_eq!(c.range_sum(0, 0), u64::MAX);
        assert_eq!(c.range_sum(0, 1), 4); // wrapped
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let col = Column::plain(vec![1]);
        let c = CumulativeColumn::build(&col);
        let _ = c.range_sum(0, 1);
    }
}
