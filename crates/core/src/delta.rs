//! Insert support via a delta buffer (§8, Insertions).
//!
//! "It could also maintain a delta index in which updates are buffered and
//! periodically merged into the data store, similar to Bigtable." —
//! [`DeltaFlood`] wraps a read-optimized [`FloodIndex`] with an unsorted
//! append buffer; queries consult both; when the buffer exceeds a threshold
//! the index is rebuilt with the buffered rows merged in (keeping the same
//! learned layout).

use crate::config::FloodConfig;
use crate::index::FloodIndex;
use crate::layout::Layout;
use flood_store::{MultiDimIndex, RangeQuery, RowBuffer, ScanStats, Table, Visitor};

/// A Flood index that accepts inserts through a delta buffer.
#[derive(Debug)]
pub struct DeltaFlood {
    base: FloodIndex,
    cfg: FloodConfig,
    /// Buffered rows, scanned linearly after the base on every query.
    delta: RowBuffer,
    merge_threshold: usize,
    merges: usize,
}

impl DeltaFlood {
    /// Build over an initial table; buffered inserts merge once the buffer
    /// reaches `merge_threshold` rows.
    pub fn build(table: &Table, layout: Layout, cfg: FloodConfig, merge_threshold: usize) -> Self {
        assert!(merge_threshold >= 1);
        DeltaFlood {
            base: FloodIndex::build(table, layout, cfg.clone()),
            cfg,
            delta: RowBuffer::new(table.dims()),
            merge_threshold,
            merges: 0,
        }
    }

    /// Insert one row (one value per dimension). Returns `true` when the
    /// insert triggered a merge.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn insert(&mut self, row: &[u64]) -> bool {
        self.delta.push(row);
        if self.delta_len() >= self.merge_threshold {
            self.merge();
            true
        } else {
            false
        }
    }

    /// Rows currently sitting in the delta buffer.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Total rows (base + delta).
    pub fn len(&self) -> usize {
        self.base.data().len() + self.delta_len()
    }

    /// True when the structure holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of merges performed so far.
    pub fn merges(&self) -> usize {
        self.merges
    }

    /// The underlying read-optimized index.
    pub fn base(&self) -> &FloodIndex {
        &self.base
    }

    /// Merge the delta buffer into the base index (rebuild with the same
    /// layout — re-learning the layout is [`crate::adaptive`]'s job).
    pub fn merge(&mut self) {
        if self.delta_len() == 0 {
            return;
        }
        let base_data = self.base.data();
        let mut cols: Vec<Vec<u64>> = (0..base_data.dims())
            .map(|d| base_data.column(d).to_vec())
            .collect();
        for (col, fresh) in cols.iter_mut().zip(self.delta.drain()) {
            col.extend(fresh);
        }
        let merged = Table::from_named_columns(cols, base_data.names().to_vec());
        self.base = FloodIndex::build(&merged, self.base.layout().clone(), self.cfg.clone());
        self.merges += 1;
    }
}

impl MultiDimIndex for DeltaFlood {
    /// Hand-written because it is a composite: the indexed base runs
    /// through the scan driver like any [`FloodIndex`] query, then the
    /// (small) delta buffer is scanned linearly and accounts for itself
    /// ([`RowBuffer::scan`]). Delta rows are reported with ids offset past
    /// the base data.
    fn execute(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> ScanStats {
        let mut stats = self.base.execute(query, agg_dim, visitor);
        let first_id = self.base.data().len();
        self.delta
            .scan(query, agg_dim, first_id, visitor, &mut stats);
        stats
    }

    fn index_size_bytes(&self) -> usize {
        self.base.index_size_bytes() + self.delta_len() * self.delta.columns().len() * 8
    }

    fn name(&self) -> &'static str {
        "Flood+delta"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_store::CountVisitor;

    fn base_table(n: u64) -> Table {
        Table::from_columns(vec![(0..n).map(|i| i % 100).collect(), (0..n).collect()])
    }

    fn count(idx: &DeltaFlood, q: &RangeQuery) -> u64 {
        let mut v = CountVisitor::default();
        idx.execute(q, None, &mut v);
        v.count
    }

    #[test]
    fn inserts_are_visible_before_merge() {
        let t = base_table(1_000);
        let mut idx = DeltaFlood::build(
            &t,
            Layout::new(vec![0, 1], vec![8]),
            FloodConfig::default(),
            100,
        );
        let q = RangeQuery::all(2).with_eq(0, 7);
        let before = count(&idx, &q);
        assert!(!idx.insert(&[7, 55_555]));
        assert_eq!(count(&idx, &q), before + 1);
        assert_eq!(idx.delta_len(), 1);
    }

    #[test]
    fn merge_triggers_at_threshold_and_preserves_results() {
        let t = base_table(2_000);
        let mut idx = DeltaFlood::build(
            &t,
            Layout::new(vec![0, 1], vec![8]),
            FloodConfig::default(),
            50,
        );
        let q = RangeQuery::all(2).with_range(0, 0, 9);
        let mut expected = count(&idx, &q);
        let mut merged = false;
        for i in 0..50u64 {
            let row = [i % 10, 1_000_000 + i];
            merged |= idx.insert(&row);
            expected += 1; // every inserted row matches 0..=9
        }
        assert!(merged, "threshold must trigger a merge");
        assert_eq!(idx.delta_len(), 0);
        assert_eq!(idx.merges(), 1);
        assert_eq!(count(&idx, &q), expected);
        assert_eq!(idx.len(), 2_050);
    }

    #[test]
    fn repeated_merges_accumulate() {
        let t = base_table(500);
        let mut idx = DeltaFlood::build(
            &t,
            Layout::new(vec![0, 1], vec![4]),
            FloodConfig::default(),
            10,
        );
        for i in 0..35u64 {
            idx.insert(&[i % 100, i]);
        }
        assert_eq!(idx.merges(), 3);
        assert_eq!(idx.len(), 535);
        assert_eq!(idx.delta_len(), 5);
        // Full count across base + delta.
        assert_eq!(count(&idx, &RangeQuery::all(2)), 535);
    }

    #[test]
    fn sum_aggregation_covers_delta() {
        use flood_store::SumVisitor;
        let t = base_table(100);
        let mut idx = DeltaFlood::build(
            &t,
            Layout::new(vec![0, 1], vec![4]),
            FloodConfig::default(),
            1_000,
        );
        idx.insert(&[5, 10_000]);
        idx.insert(&[5, 20_000]);
        let q = RangeQuery::all(2).with_eq(0, 5);
        let mut v = SumVisitor::default();
        idx.execute(&q, Some(1), &mut v);
        let base_sum: u64 = (0..100u64).filter(|i| i % 100 == 5).sum();
        assert_eq!(v.sum, base_sum + 30_000);
    }

    /// The shared `RowBuffer` accounts for itself, so the same buffered rows
    /// add the same counters over a resident base and over a tiered one.
    #[test]
    fn buffer_accounting_matches_tiered_delta() {
        use flood_store::{MemBackend, TierConfig, TieredDelta, TieredScan, TieredTable};
        let t = base_table(1_000);
        let layout = Layout::new(vec![0, 1], vec![8]);
        let mut resident = DeltaFlood::build(&t, layout, FloodConfig::default(), usize::MAX);
        let sealed = TieredTable::seal(
            &t,
            std::sync::Arc::new(MemBackend::new()),
            TierConfig::default(),
        )
        .expect("in-memory seal");
        let tiered_base = TieredScan::new(sealed.clone());
        let mut tiered = TieredDelta::with_threshold(sealed, usize::MAX);
        for i in 0..50u64 {
            let row = [i % 20, 5_000 + i];
            resident.insert(&row);
            tiered
                .insert(&row)
                .expect("no compaction below the threshold");
        }
        let q = RangeQuery::all(2).with_range(0, 3, 11);
        // What the buffer added on top of each base.
        let added = |all: ScanStats, base: ScanStats| {
            (
                all.ranges_scanned - base.ranges_scanned,
                all.points_scanned - base.points_scanned,
                all.points_matched - base.points_matched,
            )
        };
        let mut v = CountVisitor::default();
        let base = resident.base().execute(&q, None, &mut v);
        let on_resident = added(resident.execute(&q, None, &mut v), base);
        let base = tiered_base.try_execute(&q, None, &mut v);
        let all = tiered.try_execute(&q, None, &mut v);
        let on_tiered = added(all.expect("in-memory"), base.expect("in-memory"));
        assert_eq!(on_resident, on_tiered);
        // One range of 50 points; i % 20 ∈ 3..=11 holds for 9 + 9 + 7 rows.
        assert_eq!(on_resident, (1, 50, 25));
    }
}
