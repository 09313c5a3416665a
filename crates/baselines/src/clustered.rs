//! Clustered single-dimensional index (§7.2(2), Appendix A).
//!
//! "Points are sorted by the most selective dimension in the query workload,
//! and we learn a B-Tree over this sorted column using an RMI. If a query
//! filter contains this dimension, we locate the endpoints using the RMI.
//! Otherwise, we perform a full scan."
//!
//! Appendix A specifies linear-spline non-leaf layers and linear-regression
//! leaves — exactly our [`Rmi`].

use flood_learned::rmi::{Rmi, RmiConfig};
use flood_store::{CumulativeColumn, PlannedIndex, PlannedRange, RangePlan, RangeQuery, Table};

/// A learned clustered index over one dimension.
#[derive(Debug)]
pub struct ClusteredIndex {
    data: Table,
    key_dim: usize,
    rmi: Rmi,
    /// Optional cumulative SUM columns for exact-range aggregation.
    cumulatives: Vec<(usize, CumulativeColumn)>,
}

impl ClusteredIndex {
    /// Sort `table` by `key_dim` and learn an RMI over the sorted column.
    pub fn build(table: &Table, key_dim: usize) -> Self {
        Self::build_with_cumulative(table, key_dim, &[])
    }

    /// Like [`ClusteredIndex::build`], also pre-building cumulative SUM
    /// columns over `cumulative_dims`.
    pub fn build_with_cumulative(table: &Table, key_dim: usize, cumulative_dims: &[usize]) -> Self {
        assert!(key_dim < table.dims(), "key dimension out of bounds");
        let mut perm: Vec<u32> = (0..table.len() as u32).collect();
        let col = table.column(key_dim);
        perm.sort_unstable_by_key(|&r| col.get(r as usize));
        let data = table.permuted(&perm);
        let sorted: Vec<u64> = data.column(key_dim).to_vec();
        let rmi = Rmi::build(&sorted, RmiConfig::default());
        let cumulatives = cumulative_dims
            .iter()
            .map(|&d| (d, data.cumulative_sum(d)))
            .collect();
        ClusteredIndex {
            data,
            key_dim,
            rmi,
            cumulatives,
        }
    }

    /// The clustering dimension.
    pub fn key_dim(&self) -> usize {
        self.key_dim
    }

    /// The reordered data.
    pub fn data(&self) -> &Table {
        &self.data
    }
}

impl PlannedIndex for ClusteredIndex {
    const NAME: &'static str = "Clustered";
    type Source = Table;

    fn source(&self) -> &Table {
        &self.data
    }

    /// One range: the key bounds located by the RMI (the whole table when
    /// the key is unfiltered). The key dimension is exact within it, so its
    /// check is dropped; when it was the only filter the range is exact.
    fn plan(&self, query: &RangeQuery) -> RangePlan {
        let col = self.data.column(self.key_dim);
        let mut plan = RangePlan::filtered(query);
        let (start, end) = match query.bound(self.key_dim) {
            Some((lo, hi)) => {
                plan.stats.refinements = 2;
                plan.tail.retain(|&(d, ..)| d != self.key_dim);
                (
                    self.rmi.lookup_lb(lo, |i| col.get(i)),
                    self.rmi.lookup_ub(hi, |i| col.get(i)),
                )
            }
            None => (0, self.data.len()),
        };
        plan.ranges.push(if plan.tail.is_empty() {
            PlannedRange::exact(start, end)
        } else {
            PlannedRange::checked(start, end)
        });
        plan
    }

    /// Exact ranges answer SUMs from it outright, and the kernel uses it
    /// for blocks the remaining filters accept wholesale.
    fn cumulative(&self, agg_dim: usize) -> Option<&CumulativeColumn> {
        let built = self.cumulatives.iter().find(|(dim, _)| *dim == agg_dim);
        built.map(|(_, c)| c)
    }

    fn structure_bytes(&self) -> usize {
        self.rmi.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_store::{assert_partitioned_matches_serial, CountVisitor, MultiDimIndex, SumVisitor};
    use flood_testkit::count;

    fn table() -> Table {
        let n = 10_000u64;
        Table::from_columns(vec![
            (0..n).map(|i| (i * 2654435761) % 100_000).collect(),
            (0..n).map(|i| i % 500).collect(),
        ])
    }

    #[test]
    fn keyed_range_query() {
        let t = table();
        let idx = ClusteredIndex::build(&t, 0);
        let q = RangeQuery::all(2).with_range(0, 10_000, 30_000);
        let mut v = CountVisitor::default();
        let stats = idx.execute(&q, None, &mut v);
        assert_eq!(v.count, count(&t, &q));
        // Key-only filter ⇒ exact range, zero scan overhead.
        assert_eq!(stats.points_scanned, 0);
        assert_eq!(stats.points_in_exact_ranges, v.count);
    }

    #[test]
    fn multi_dim_query_scans_key_range_only() {
        let t = table();
        let idx = ClusteredIndex::build(&t, 0);
        let q = RangeQuery::all(2)
            .with_range(0, 10_000, 30_000)
            .with_range(1, 100, 200);
        let mut v = CountVisitor::default();
        let stats = idx.execute(&q, None, &mut v);
        assert_eq!(v.count, count(&t, &q));
        assert!(stats.points_scanned < t.len() as u64);
    }

    #[test]
    fn unkeyed_query_full_scans() {
        let t = table();
        let idx = ClusteredIndex::build(&t, 0);
        let q = RangeQuery::all(2).with_range(1, 100, 120);
        let mut v = CountVisitor::default();
        let stats = idx.execute(&q, None, &mut v);
        assert_eq!(v.count, count(&t, &q));
        assert_eq!(stats.points_scanned, t.len() as u64);
    }

    #[test]
    fn cumulative_sum_on_exact_range() {
        let t = table();
        let idx = ClusteredIndex::build_with_cumulative(&t, 0, &[1]);
        let q = RangeQuery::all(2).with_range(0, 0, 50_000);
        let mut v = SumVisitor::default();
        let stats = idx.execute(&q, Some(1), &mut v);
        assert_eq!(v.sum, flood_testkit::oracle(&t, &q, Some(1), None).sum.sum);
        assert_eq!(stats.points_scanned, 0, "prefix sums answer exact SUMs");
    }

    #[test]
    fn empty_result() {
        let t = table();
        let idx = ClusteredIndex::build(&t, 0);
        let q = RangeQuery::all(2).with_range(0, 200_000, 300_000);
        let mut v = CountVisitor::default();
        idx.execute(&q, None, &mut v);
        assert_eq!(v.count, 0);
    }

    #[test]
    fn partitioned_plan_matches_serial() {
        let t = table();
        let idx = ClusteredIndex::build_with_cumulative(&t, 0, &[1]);
        // Exact (key-only), filtered (key + residual), and unkeyed plans.
        let queries = [
            RangeQuery::all(2).with_range(0, 10_000, 60_000),
            RangeQuery::all(2)
                .with_range(0, 10_000, 60_000)
                .with_range(1, 100, 300),
            RangeQuery::all(2).with_range(1, 100, 300),
        ];
        for q in &queries {
            assert_partitioned_matches_serial::<SumVisitor>(&idx, q, Some(1), &[1, 4, 9]);
        }
    }
}
