//! Full scan baseline (§7.2(1)): "Every point is visited, but only the
//! columns present in the query filter are accessed."

use flood_store::index_trait::ChunkedScanPlan;
use flood_store::{
    scan_filtered, MatchCount, MultiDimIndex, PartitionedScan, RangeQuery, ScanPlan, ScanStats,
    Table, Visitor,
};

/// A degenerate "index" that scans the whole table for every query — the
/// correctness oracle and performance floor for all other indexes.
/// Compressed tables resolve predicates against packed blocks without
/// decoding (the scan kernel's block path).
#[derive(Debug)]
pub struct FullScan {
    data: Table,
}

impl FullScan {
    /// Wrap a table. No reordering, no metadata.
    pub fn build(table: &Table) -> Self {
        FullScan {
            data: table.clone(),
        }
    }

    /// The underlying data.
    pub fn data(&self) -> &Table {
        &self.data
    }
}

impl MultiDimIndex for FullScan {
    fn execute(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> ScanStats {
        let mut stats = ScanStats::default();
        let mut counter = MatchCount::new(visitor);
        let n = self.data.len();
        let Ok(()) = scan_filtered(
            &self.data,
            query,
            0,
            n,
            agg_dim,
            None,
            &mut counter,
            &mut stats,
        );
        stats.points_matched = counter.matched;
        stats.ranges_scanned = 1;
        stats
    }

    fn index_size_bytes(&self) -> usize {
        0 // no index structure at all
    }

    fn name(&self) -> &'static str {
        "Full Scan"
    }
}

impl PartitionedScan for FullScan {
    /// The whole table cut into balanced block-aligned row chunks — the
    /// simplest possible partitioned plan, and the throughput yardstick
    /// for parallel scans.
    fn plan_scan(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        max_tasks: usize,
    ) -> Box<dyn ScanPlan + '_> {
        Box::new(ChunkedScanPlan::new(
            &self.data,
            Some(query.clone()),
            agg_dim,
            None,
            &[(0, self.data.len())],
            max_tasks,
            // The serial path reports the whole table as one scanned range.
            ScanStats {
                ranges_scanned: 1,
                ..Default::default()
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_store::CountVisitor;

    #[test]
    fn scans_everything() {
        let t = Table::from_columns(vec![(0..100).collect(), (0..100).rev().collect()]);
        let idx = FullScan::build(&t);
        let q = RangeQuery::all(2).with_range(0, 10, 19);
        let mut v = CountVisitor::default();
        let stats = idx.execute(&q, None, &mut v);
        assert_eq!(v.count, 10);
        assert_eq!(stats.points_scanned, 100);
        assert_eq!(stats.points_matched, 10);
        assert_eq!(idx.index_size_bytes(), 0);
    }

    #[test]
    fn unfiltered_query_matches_all() {
        let t = Table::from_columns(vec![(0..50).collect()]);
        let idx = FullScan::build(&t);
        let mut v = CountVisitor::default();
        idx.execute(&RangeQuery::all(1), None, &mut v);
        assert_eq!(v.count, 50);
    }

    #[test]
    fn partitioned_plan_matches_serial() {
        let t = Table::from_columns(vec![
            (0..5_000u64).map(|i| i % 97).collect(),
            (0..5_000u64).map(|i| i % 13).collect(),
        ]);
        let idx = FullScan::build(&t);
        let q = RangeQuery::all(2).with_range(0, 10, 40).with_range(1, 0, 9);
        let mut serial = CountVisitor::default();
        let serial_stats = idx.execute(&q, None, &mut serial);
        for max_tasks in [1, 3, 8] {
            let plan = idx.plan_scan(&q, None, max_tasks);
            let mut count = 0u64;
            let mut stats = plan.plan_stats();
            for i in 0..plan.tasks() {
                let mut v = CountVisitor::default();
                let mut s = ScanStats::default();
                plan.run_task(i, &mut v, &mut s);
                count += v.count;
                stats.merge(&s);
            }
            assert_eq!(count, serial.count, "{max_tasks} tasks");
            assert_eq!(stats, serial_stats, "{max_tasks} tasks");
        }
    }
}
