//! Full scan baseline (§7.2(1)): "Every point is visited, but only the
//! columns present in the query filter are accessed."

use flood_store::{PlannedIndex, RangePlan, RangeQuery, Table};

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

impl PlannedIndex for FullScan {
    const NAME: &'static str = "Full Scan";
    type Source = Table;

    fn source(&self) -> &Table {
        &self.data
    }

    /// The whole table as one checked range — partitioned, the simplest
    /// possible plan and the throughput yardstick for parallel scans.
    fn plan(&self, query: &RangeQuery) -> RangePlan {
        RangePlan::full(self.data.len(), query)
    }

    fn structure_bytes(&self) -> usize {
        0 // no index structure at all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_store::{assert_partitioned_matches_serial, CountVisitor, MultiDimIndex};

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
        assert_partitioned_matches_serial::<CountVisitor>(&idx, &q, None, &[1, 3, 8]);
    }
}
