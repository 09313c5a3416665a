//! [`TieredDelta`]: fresh inserts over a sealed tiered table.
//!
//! The store's write path (§8, Insertions: "a delta index in which
//! updates are buffered and periodically merged"): inserts land in a
//! column-major buffer, and compaction drains it by sealing it into *new
//! cold segments* appended to the base ([`TieredTable::append_columns`]),
//! so a larger-than-RAM table absorbs writes without ever materializing
//! fully in memory. Readers see sealed rows only: a row is readable
//! through a [`TieredScan`](super::TieredScan) of [`TieredDelta::base`]
//! once compacted.
//!
//! Row ids are stable and append-only: an insert is numbered after every
//! row before it, sealed or buffered, and because compaction appends to
//! the base in insert order, a row keeps its id when it is sealed.

use super::backend::StorageError;
use super::table::TieredTable;

/// Default number of buffered rows that triggers auto-compaction.
pub const DEFAULT_TIER_DELTA_THRESHOLD: usize = 4_096;

/// A write buffer over a sealed [`TieredTable`].
#[derive(Debug)]
pub struct TieredDelta {
    base: TieredTable,
    /// The buffered rows, one `Vec` per dimension, in insert order.
    buffer: Vec<Vec<u64>>,
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
            buffer: vec![Vec::new(); base.dims()],
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
        self.buffer.first().map_or(0, Vec::len)
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
        for (col, &v) in self.buffer.iter_mut().zip(row) {
            col.push(v);
        }
        if self.buffered() >= self.threshold {
            self.compact().inspect_err(|_| {
                for col in &mut self.buffer {
                    col.pop();
                }
            })?;
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
        self.base.append_columns(self.buffer.clone())?;
        for col in &mut self.buffer {
            col.clear();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::backend::MemBackend;
    use super::super::cache::TierConfig;
    use super::super::TieredScan;
    use super::*;
    use crate::query::RangeQuery;
    use crate::stats::ScanStats;
    use crate::table::Table;
    use crate::visitor::{CollectVisitor, CountVisitor, SumVisitor, Visitor};
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

    /// `query` over the sealed rows, the only ones a reader sees.
    fn read(d: &TieredDelta, q: &RangeQuery, agg: Option<usize>, v: &mut dyn Visitor) -> ScanStats {
        let scan = TieredScan::new(d.base().clone());
        scan.try_execute(q, agg, v).unwrap()
    }

    #[test]
    fn inserts_visible_and_compaction_preserves_results() {
        let mut d = TieredDelta::with_threshold(base(300), usize::MAX);
        for i in 0..50u64 {
            let id = d.insert(&[1_000 + i, i]).unwrap();
            assert_eq!(id, 300 + i as usize);
        }
        assert_eq!((d.len(), d.buffered()), (350, 50));
        let q = RangeQuery::all(2).with_range(0, 1_000, 2_000);
        let mut v = CountVisitor::default();
        let before = read(&d, &q, None, &mut v);
        // Buffered rows are unsealed, and the base's running bounds (max
        // 299) rule it out unread.
        assert_eq!((v.count, before.points_scanned), (0, 0));

        d.compact().unwrap();
        assert_eq!(d.buffered(), 0);
        assert_eq!(d.len(), 350);
        let mut v2 = CountVisitor::default();
        let after = read(&d, &q, None, &mut v2);
        assert_eq!(v2.count, 50, "compaction seals every buffered row");
        assert_eq!(after.ranges_scanned, 1);
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
        d.compact().unwrap();
        let q = RangeQuery::all(2).with_range(0, 50, 200);
        let mut v = SumVisitor::default();
        read(&d, &q, Some(1), &mut v);
        // Reference: resident concat of base and inserts.
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
        let q = RangeQuery::all(2).with_range(0, 9_999, 9_999);
        let mut v = CollectVisitor::default();
        read(&d, &q, None, &mut v);
        assert!(v.rows.is_empty(), "unsealed");
        d.compact().unwrap();
        let mut v2 = CollectVisitor::default();
        read(&d, &q, None, &mut v2);
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
        assert_eq!((d.len(), d.buffered()), (10, 2));
        let mut v = CountVisitor::default();
        read(&d, &RangeQuery::all(2), None, &mut v);
        assert_eq!(v.count, 8, "two auto-compactions");
        d.compact().unwrap();
        let mut v = CountVisitor::default();
        read(&d, &RangeQuery::all(2), None, &mut v);
        assert_eq!(v.count, 10);
    }

    #[test]
    fn wrong_arity_is_refused() {
        let mut d = TieredDelta::with_threshold(base(10), usize::MAX);
        let err = d.insert(&[1]).unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::Arity {
                    expected: 2,
                    got: 1
                }
            ),
            "{err}"
        );
        assert_eq!((d.len(), d.buffered()), (10, 0), "nothing stored");
        assert_eq!(d.insert(&[1, 2]).unwrap(), 10);
    }
}
