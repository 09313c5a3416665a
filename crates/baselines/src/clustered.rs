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
use flood_store::index_trait::ChunkedScanPlan;
use flood_store::{
    scan_exact, scan_filtered, CumulativeColumn, MatchCount, MultiDimIndex, PartitionedScan,
    RangeQuery, ScanPlan, ScanStats, Table, Visitor,
};

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

    /// Shared planning for serial and partitioned execution: locate the key
    /// range via the RMI, strip the key dimension from the residual filters,
    /// and pick the cumulative column when the range is exact.
    fn plan_range(&self, query: &RangeQuery, agg_dim: Option<usize>) -> KeyRangePlan<'_> {
        let col = self.data.column(self.key_dim);
        let (start, end, refinements) = match query.bound(self.key_dim) {
            Some((lo, hi)) => (
                self.rmi.lookup_lb(lo, |i| col.get(i)),
                self.rmi.lookup_ub(hi, |i| col.get(i)),
                2,
            ),
            None => (0, self.data.len(), 0),
        };
        // The key dimension is exact within [start, end); drop its check.
        // When it is the only filtered dimension the range is fully exact.
        let mut residual = query.clone();
        if query.filters(self.key_dim) {
            residual = strip_dim(query, self.key_dim);
        }
        let exact = residual.num_filtered() == 0;
        // Selected whenever the aggregation column has prefix sums: exact
        // ranges answer from it outright, and the kernel uses it for blocks
        // the residual accepts wholesale.
        let cumulative = agg_dim.and_then(|d| {
            self.cumulatives
                .iter()
                .find(|(dim, _)| *dim == d)
                .map(|(_, c)| c)
        });
        KeyRangePlan {
            start,
            end,
            refinements,
            residual: (!exact).then_some(residual),
            cumulative,
        }
    }
}

/// Output of [`ClusteredIndex::plan_range`].
struct KeyRangePlan<'a> {
    start: usize,
    end: usize,
    refinements: u64,
    /// Filters checked per row; `None` when the range is exact.
    residual: Option<RangeQuery>,
    /// Cumulative SUM column of the aggregation dimension, if built.
    cumulative: Option<&'a CumulativeColumn>,
}

impl MultiDimIndex for ClusteredIndex {
    fn execute(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        visitor: &mut dyn Visitor,
    ) -> ScanStats {
        let plan = self.plan_range(query, agg_dim);
        let mut stats = ScanStats {
            ranges_scanned: 1,
            refinements: plan.refinements,
            ..Default::default()
        };
        let mut counter = MatchCount::new(visitor);
        let (data, cum) = (&self.data, plan.cumulative);
        let (s, e) = (plan.start, plan.end);
        let Ok(()) = match &plan.residual {
            None => scan_exact(data, s, e, agg_dim, cum, &mut counter, &mut stats),
            Some(q) => scan_filtered(data, q, s, e, agg_dim, cum, &mut counter, &mut stats),
        };
        stats.points_matched = counter.matched;
        stats
    }

    fn index_size_bytes(&self) -> usize {
        self.rmi.size_bytes()
    }

    fn name(&self) -> &'static str {
        "Clustered"
    }
}

impl PartitionedScan for ClusteredIndex {
    /// The key range located by the RMI, cut into block-aligned chunks.
    /// When the key was the only filter the range is exact and chunks skip
    /// per-row checks (cumulative columns still answer SUMs per chunk).
    fn plan_scan(
        &self,
        query: &RangeQuery,
        agg_dim: Option<usize>,
        max_tasks: usize,
    ) -> Box<dyn ScanPlan + '_> {
        let plan = self.plan_range(query, agg_dim);
        Box::new(ChunkedScanPlan::new(
            &self.data,
            plan.residual,
            agg_dim,
            plan.cumulative,
            &[(plan.start, plan.end)],
            max_tasks,
            ScanStats {
                ranges_scanned: 1,
                refinements: plan.refinements,
                ..Default::default()
            },
        ))
    }
}

/// A copy of `query` without the filter on `dim`.
fn strip_dim(query: &RangeQuery, dim: usize) -> RangeQuery {
    let mut q = RangeQuery::all(query.dims());
    for d in 0..query.dims() {
        if d != dim {
            if let Some((lo, hi)) = query.bound(d) {
                q = q.with_range(d, lo, hi);
            }
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_store::{CountVisitor, SumVisitor};

    fn table() -> Table {
        let n = 10_000u64;
        Table::from_columns(vec![
            (0..n).map(|i| (i * 2654435761) % 100_000).collect(),
            (0..n).map(|i| i % 500).collect(),
        ])
    }

    fn reference(t: &Table, q: &RangeQuery) -> u64 {
        (0..t.len()).filter(|&r| q.matches(&t.row(r))).count() as u64
    }

    #[test]
    fn keyed_range_query() {
        let t = table();
        let idx = ClusteredIndex::build(&t, 0);
        let q = RangeQuery::all(2).with_range(0, 10_000, 30_000);
        let mut v = CountVisitor::default();
        let stats = idx.execute(&q, None, &mut v);
        assert_eq!(v.count, reference(&t, &q));
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
        assert_eq!(v.count, reference(&t, &q));
        assert!(stats.points_scanned < t.len() as u64);
    }

    #[test]
    fn unkeyed_query_full_scans() {
        let t = table();
        let idx = ClusteredIndex::build(&t, 0);
        let q = RangeQuery::all(2).with_range(1, 100, 120);
        let mut v = CountVisitor::default();
        let stats = idx.execute(&q, None, &mut v);
        assert_eq!(v.count, reference(&t, &q));
        assert_eq!(stats.points_scanned, t.len() as u64);
    }

    #[test]
    fn cumulative_sum_on_exact_range() {
        let t = table();
        let idx = ClusteredIndex::build_with_cumulative(&t, 0, &[1]);
        let q = RangeQuery::all(2).with_range(0, 0, 50_000);
        let mut v = SumVisitor::default();
        let stats = idx.execute(&q, Some(1), &mut v);
        let want: u64 = (0..t.len())
            .filter(|&r| q.matches(&t.row(r)))
            .map(|r| t.value(r, 1))
            .sum();
        assert_eq!(v.sum, want);
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
        for (qi, q) in queries.iter().enumerate() {
            let mut serial = SumVisitor::default();
            let serial_stats = idx.execute(q, Some(1), &mut serial);
            for max_tasks in [1, 4, 9] {
                let plan = idx.plan_scan(q, Some(1), max_tasks);
                let mut merged = SumVisitor::default();
                let mut stats = plan.plan_stats();
                for i in 0..plan.tasks() {
                    let mut v = SumVisitor::default();
                    let mut s = flood_store::ScanStats::default();
                    plan.run_task(i, &mut v, &mut s);
                    merged.sum = merged.sum.wrapping_add(v.sum);
                    merged.count += v.count;
                    stats.merge(&s);
                }
                assert_eq!(merged.sum, serial.sum, "query {qi}, {max_tasks} tasks");
                assert_eq!(stats, serial_stats, "query {qi}, {max_tasks} tasks");
            }
        }
    }
}
