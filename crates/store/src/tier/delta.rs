//! [`TieredDelta`]: fresh inserts over a sealed tiered table.
//!
//! The store's write path (§8, Insertions: "a delta index in which
//! updates are buffered and periodically merged"), over a [`RowBuffer`]:
//! inserts land in the buffer, every query scans it linearly after the
//! sealed base, and compaction drains it by sealing it into *new cold
//! segments* appended to the base ([`TieredTable::append_columns`]), so a
//! larger-than-RAM table absorbs writes without ever materializing fully
//! in memory. Row ids are
//! stable and append-only (see [`RowBuffer`]).
//!
//! The base scan is fallible (segment faults); the buffer scan is not.
//! Queries run the fallible part *first* — an I/O error surfaces before
//! the visitor has seen anything, so callers retry wholesale, same
//! contract as [`TieredScan`](super::TieredScan).

use super::backend::StorageError;
use super::table::TieredTable;
use crate::plan::RangeScan;
use crate::query::RangeQuery;
use crate::row_buffer::RowBuffer;
use crate::stats::ScanStats;
use crate::visitor::Visitor;

/// Default number of buffered rows that triggers auto-compaction.
pub const DEFAULT_TIER_DELTA_THRESHOLD: usize = 4_096;

/// A write buffer over a sealed [`TieredTable`].
#[derive(Debug)]
pub struct TieredDelta {
    base: TieredTable,
    buffer: RowBuffer,
    threshold: usize,
}

impl TieredDelta {
    /// Wrap a sealed base with the default compaction threshold.
    pub fn new(base: TieredTable) -> Self {
        Self::with_threshold(base, DEFAULT_TIER_DELTA_THRESHOLD)
    }

    /// Wrap a sealed base; the buffer auto-compacts when it reaches
    /// `threshold` rows (`usize::MAX` for manual-only compaction).
    pub fn with_threshold(base: TieredTable, threshold: usize) -> Self {
        TieredDelta {
            buffer: RowBuffer::new(base.dims()),
            base,
            threshold: threshold.max(1),
        }
    }

    /// The sealed base.
    pub fn base(&self) -> &TieredTable {
        &self.base
    }

    /// Total rows: sealed plus buffered.
    pub fn len(&self) -> usize {
        self.base.len() + self.buffered()
    }

    /// True when no rows exist at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows currently in the unsealed buffer.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Insert one row (one value per dimension). Returns the row's stable
    /// id. Auto-compacts when the buffer reaches the threshold. Errors: a
    /// row of the wrong arity ([`StorageError::Arity`]), or a failed
    /// sealing write. On `Err` the row is not in the table — the length
    /// and the next id are unchanged — so a retry stores it once.
    pub fn insert(&mut self, row: &[u64]) -> Result<usize, StorageError> {
        let expected = self.base.dims();
        if row.len() != expected {
            let got = row.len();
            return Err(StorageError::Arity { expected, got });
        }
        let id = self.len();
        self.buffer.push(row);
        if self.buffered() >= self.threshold {
            self.compact().inspect_err(|_| self.buffer.pop())?;
        }
        Ok(id)
    }

    /// Seal the buffer into new cold segments appended to the base. A
    /// no-op on an empty buffer. On error the buffer is retained — nothing
    /// is lost, and the insert path can retry.
    pub fn compact(&mut self) -> Result<(), StorageError> {
        if self.buffered() == 0 {
            return Ok(());
        }
        self.base.append_columns(self.buffer.columns().to_vec())?;
        self.buffer.drain();
        Ok(())
    }

    /// Execute `query` over base + buffer — hand-written because it is a
    /// composite: the sealed base goes through the scan driver as its one
    /// candidate range ([`TieredTable::candidate_rows`]), the buffer
    /// accounts for itself ([`RowBuffer::scan`]). The
    /// fallible base scan runs first; on `Err` the visitor is untouched.
    /// Buffered rows are visited after sealed rows, in insert order, with
    /// their stable ids.
    pub fn try_execute(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> Result<ScanStats, StorageError> {
        let base = RangeScan {
            source: &self.base,
            plan: self.base.plan(query),
            agg_dim,
            cumulative: None,
        };
        let mut stats = base.try_run(visitor)?;
        self.buffer
            .scan(query, agg_dim, self.base.len(), visitor, &mut stats);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::super::backend::MemBackend;
    use super::super::cache::TierConfig;
    use super::*;
    use crate::table::Table;
    use crate::visitor::{CountVisitor, SumVisitor};
    use std::sync::Arc;

    fn base(n: u64) -> TieredTable {
        TieredTable::seal(
            &Table::from_columns(vec![(0..n).collect(), (0..n).map(|i| i * 3).collect()]),
            Arc::new(MemBackend::new()),
            TierConfig {
                budget_bytes: 1 << 16,
                segment_blocks: 2,
            },
        )
        .unwrap()
    }

    #[test]
    fn inserts_visible_and_compaction_preserves_results() {
        let mut d = TieredDelta::with_threshold(base(300), usize::MAX);
        for i in 0..50u64 {
            let id = d.insert(&[1_000 + i, i]).unwrap();
            assert_eq!(id, 300 + i as usize);
        }
        let q = RangeQuery::all(2).with_range(0, 1_000, 2_000);
        let mut v = CountVisitor::default();
        let before = d.try_execute(&q, None, &mut v).unwrap();
        assert_eq!(v.count, 50);
        // The base's running bounds (max 299) rule it out unread: only the
        // buffer is scanned.
        assert_eq!(before.ranges_scanned, 1);
        assert_eq!(before.points_scanned, 50);

        d.compact().unwrap();
        assert_eq!(d.buffered(), 0);
        assert_eq!(d.len(), 350);
        let mut v2 = CountVisitor::default();
        let after = d.try_execute(&q, None, &mut v2).unwrap();
        assert_eq!(v2.count, 50, "compaction must not change results");
        assert_eq!(after.ranges_scanned, 1, "buffer drained");
        // Sealed, the 50 rows are the tail of the second 256-row segment.
        assert_eq!(after.points_scanned, 350 - 256);
    }

    #[test]
    fn auto_compacts_at_threshold() {
        let mut d = TieredDelta::with_threshold(base(256), 16);
        let segs_before = d.base().n_segments();
        for i in 0..16u64 {
            d.insert(&[i, i]).unwrap();
        }
        assert_eq!(d.buffered(), 0, "threshold insert must compact");
        assert!(d.base().n_segments() >= segs_before);
        assert_eq!(d.len(), 272);
    }

    #[test]
    fn sums_agree_with_linear_reference() {
        let mut d = TieredDelta::with_threshold(base(300), usize::MAX);
        for i in 0..40u64 {
            d.insert(&[i * 7 % 290, i]).unwrap();
        }
        let q = RangeQuery::all(2).with_range(0, 50, 200);
        let mut v = SumVisitor::default();
        d.try_execute(&q, Some(1), &mut v).unwrap();
        // Reference: resident concat of base and buffer.
        let mut want = 0u64;
        let mut want_n = 0u64;
        for r in 0..300u64 {
            if (50..=200).contains(&r) {
                want = want.wrapping_add(r * 3);
                want_n += 1;
            }
        }
        for i in 0..40u64 {
            if (50..=200).contains(&(i * 7 % 290)) {
                want = want.wrapping_add(i);
                want_n += 1;
            }
        }
        assert_eq!(v.sum, want);
        assert_eq!(v.count, want_n);
    }

    #[test]
    fn row_ids_stable_across_compaction() {
        let mut d = TieredDelta::with_threshold(base(130), usize::MAX);
        // 130 is unaligned: compaction rewrites the tail block.
        let id = d.insert(&[9_999, 1]).unwrap();
        assert_eq!(id, 130);
        use crate::visitor::CollectVisitor;
        let q = RangeQuery::all(2).with_range(0, 9_999, 9_999);
        let mut v = CollectVisitor::default();
        d.try_execute(&q, None, &mut v).unwrap();
        assert_eq!(v.rows, vec![130]);
        d.compact().unwrap();
        let mut v2 = CollectVisitor::default();
        d.try_execute(&q, None, &mut v2).unwrap();
        assert_eq!(v2.rows, vec![130], "sealing must not renumber rows");
    }

    #[test]
    fn empty_base_grows_from_nothing() {
        let empty = TieredTable::seal(
            &Table::from_columns(vec![vec![], vec![]]),
            Arc::new(MemBackend::new()),
            TierConfig::default(),
        )
        .unwrap();
        let mut d = TieredDelta::with_threshold(empty, 4);
        for i in 0..10u64 {
            d.insert(&[i, i * 2]).unwrap();
        }
        assert_eq!(d.len(), 10);
        let mut v = CountVisitor::default();
        d.try_execute(&RangeQuery::all(2), None, &mut v).unwrap();
        assert_eq!(v.count, 10);
    }
}
