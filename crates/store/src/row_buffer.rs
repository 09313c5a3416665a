//! [`RowBuffer`]: the unsorted insert buffer behind [`TieredDelta`], the
//! write path over sealed cold segments.
//!
//! Inserts append; every query scans the buffer linearly after its sealed
//! base; a compaction drains it. Rows are addressed by *stable
//! ids*: the caller passes the id of the buffer's first row (its base's
//! length), and because draining appends to the base in insert order, a
//! row keeps its id when it moves from buffered to sealed.
//!
//! [`TieredDelta`]: crate::tier::TieredDelta

use crate::query::RangeQuery;
use crate::stats::ScanStats;
use crate::visitor::Visitor;

/// A column-major append buffer of rows.
#[derive(Debug, Clone)]
pub struct RowBuffer {
    /// One `Vec` per dimension, equal lengths.
    cols: Vec<Vec<u64>>,
}

impl RowBuffer {
    /// An empty buffer of `dims`-column rows.
    pub fn new(dims: usize) -> Self {
        RowBuffer {
            cols: vec![Vec::new(); dims],
        }
    }

    /// Append one row (one value per dimension).
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn push(&mut self, row: &[u64]) {
        assert_eq!(row.len(), self.cols.len(), "row arity mismatch");
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// Drop the newest row: undo a [`push`](Self::push).
    pub fn pop(&mut self) {
        for col in &mut self.cols {
            col.pop();
        }
    }

    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    /// True when no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffered rows, one `Vec` per dimension, in insert order.
    pub fn columns(&self) -> &[Vec<u64>] {
        &self.cols
    }

    /// Take every buffered row (column-major), leaving the buffer empty.
    pub fn drain(&mut self) -> Vec<Vec<u64>> {
        self.cols.iter_mut().map(std::mem::take).collect()
    }

    /// Visit every buffered row matching `query`, in insert order, as row
    /// `first_id + i` with its value in `agg_dim` (0 when the visitor needs
    /// none). Accounts for itself in `stats`, the same way for every delta
    /// index: a non-empty buffer is one scanned range of `len()` scanned
    /// points, and every row shown to `visitor` is a matched point.
    pub fn scan(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        first_id: usize,
        visitor: &mut dyn Visitor,
        stats: &mut ScanStats,
    ) {
        if self.is_empty() {
            return;
        }
        stats.ranges_scanned += 1;
        stats.points_scanned += self.len() as u64;
        let checks = query.checks();
        let values = agg_dim.filter(|_| visitor.needs_value());
        'rows: for i in 0..self.len() {
            for &(d, lo, hi) in &checks {
                let v = self.cols[d][i];
                if v < lo || v > hi {
                    continue 'rows;
                }
            }
            stats.points_matched += 1;
            visitor.visit(first_id + i, values.map_or(0, |d| self.cols[d][i]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visitor::{CollectVisitor, SumVisitor};

    #[test]
    fn scan_filters_with_stable_ids_and_drain_empties() {
        let mut buf = RowBuffer::new(2);
        for i in 0..10u64 {
            buf.push(&[i, i * 100]);
        }
        assert_eq!(buf.len(), 10);
        let q = RangeQuery::all(2).with_range(0, 3, 5);
        let mut rows = CollectVisitor::default();
        let mut stats = ScanStats::default();
        buf.scan(&q, None, 1_000, &mut rows, &mut stats);
        assert_eq!(rows.rows, vec![1_003, 1_004, 1_005]);
        let counted = (
            stats.ranges_scanned,
            stats.points_scanned,
            stats.points_matched,
        );
        assert_eq!(counted, (1, 10, 3));
        let mut sum = SumVisitor::default();
        buf.scan(&q, Some(1), 1_000, &mut sum, &mut stats);
        assert_eq!((sum.sum, sum.count), (1_200, 3));

        let cols = buf.drain();
        assert_eq!(cols[1][9], 900);
        assert!(buf.is_empty());
        let mut none = ScanStats::default();
        buf.scan(&q, None, 0, &mut rows, &mut none);
        assert_eq!(none, ScanStats::default(), "an empty buffer is no range");
        buf.push(&[7, 7]);
        assert_eq!(buf.columns(), [vec![7], vec![7]]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn wrong_arity_panics() {
        RowBuffer::new(2).push(&[1]);
    }
}
