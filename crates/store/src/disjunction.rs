//! Disjunction (OR) support via decomposition (§3).
//!
//! "Typical selections generally also include disjunctions (i.e. OR
//! clauses). However, these can be decomposed into multiple queries over
//! disjoint attribute ranges; hence our focus on ANDs." — this module is
//! that decomposition contract: execute a *union of disjoint conjunctive
//! queries* against any [`MultiDimIndex`], feeding one visitor. Because the
//! rectangles are verified pairwise disjoint, no row can match twice and
//! the union needs no deduplication.

use crate::index_trait::MultiDimIndex;
use crate::query::RangeQuery;
use crate::stats::ScanStats;
use crate::visitor::Visitor;

/// Error: two branch rectangles of a union overlap, so rows could be
/// visited twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapError {
    /// Indices of the first overlapping pair found.
    pub first: usize,
    /// See `first`.
    pub second: usize,
}

impl std::fmt::Display for OverlapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "disjunction branches {} and {} overlap; decompose into disjoint ranges",
            self.first, self.second
        )
    }
}

impl std::error::Error for OverlapError {}

/// Whether two conjunctive queries can match a common point.
pub fn queries_overlap(a: &RangeQuery, b: &RangeQuery) -> bool {
    debug_assert_eq!(a.dims(), b.dims());
    (0..a.dims()).all(|d| a.lo(d) <= b.hi(d) && b.lo(d) <= a.hi(d))
}

/// Verify all branches are pairwise disjoint.
pub fn check_disjoint(queries: &[RangeQuery]) -> Result<(), OverlapError> {
    for i in 0..queries.len() {
        for j in i + 1..queries.len() {
            if queries_overlap(&queries[i], &queries[j]) {
                return Err(OverlapError {
                    first: i,
                    second: j,
                });
            }
        }
    }
    Ok(())
}

/// Execute the union of pairwise-disjoint conjunctive `queries` against
/// `index`, accumulating into one `visitor`. Returns the merged stats.
///
/// # Errors
/// [`OverlapError`] when two branches could match the same row.
pub fn execute_disjoint_union(
    index: &dyn MultiDimIndex,
    queries: &[RangeQuery],
    agg_dim: Option<usize>,
    visitor: &mut dyn Visitor,
) -> Result<ScanStats, OverlapError> {
    check_disjoint(queries)?;
    let mut stats = ScanStats::default();
    for q in queries {
        stats.merge(&index.execute(q, agg_dim, visitor));
    }
    Ok(stats)
}

/// Decompose an IN-list (`dim IN {v₁, v₂, …}`) plus a base conjunction into
/// disjoint branches: one equality per distinct value.
pub fn decompose_in_list(base: &RangeQuery, dim: usize, values: &[u64]) -> Vec<RangeQuery> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted
        .into_iter()
        .map(|v| {
            let mut q = RangeQuery::all(base.dims());
            for d in 0..base.dims() {
                if d == dim {
                    q = q.with_eq(d, v);
                } else if let Some((lo, hi)) = base.bound(d) {
                    q = q.with_range(d, lo, hi);
                }
            }
            q
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_filtered;
    use crate::table::Table;
    use crate::visitor::CountVisitor;

    /// A trivially correct index for the tests.
    struct Scanner(Table);

    impl MultiDimIndex for Scanner {
        fn execute(
            &self,
            query: &RangeQuery,
            agg_dim: Option<usize>,
            visitor: &mut dyn Visitor,
        ) -> ScanStats {
            let mut stats = ScanStats::default();
            let n = self.0.len();
            let Ok(()) = scan_filtered(&self.0, query, 0, n, agg_dim, None, visitor, &mut stats);
            stats
        }

        fn index_size_bytes(&self) -> usize {
            0
        }

        fn name(&self) -> &'static str {
            "scanner"
        }
    }

    fn table() -> Table {
        Table::from_columns(vec![
            (0..100u64).map(|i| i % 10).collect(),
            (0..100u64).collect(),
        ])
    }

    #[test]
    fn overlap_detection() {
        let a = RangeQuery::all(2).with_range(0, 0, 5);
        let b = RangeQuery::all(2).with_range(0, 5, 9); // shares value 5
        let c = RangeQuery::all(2).with_range(0, 6, 9);
        assert!(queries_overlap(&a, &b));
        assert!(!queries_overlap(&a, &c));
        assert_eq!(
            check_disjoint(&[a.clone(), b]),
            Err(OverlapError {
                first: 0,
                second: 1
            })
        );
        assert_eq!(check_disjoint(&[a, c]), Ok(()));
    }

    #[test]
    fn overlap_needs_all_dims() {
        // Same range on dim 0 but disjoint on dim 1 ⇒ disjoint overall.
        let a = RangeQuery::all(2).with_range(0, 0, 5).with_range(1, 0, 10);
        let b = RangeQuery::all(2).with_range(0, 0, 5).with_range(1, 11, 20);
        assert!(!queries_overlap(&a, &b));
    }

    #[test]
    fn union_counts_each_row_once() {
        let t = table();
        let idx = Scanner(t);
        // d0 ∈ {2} OR d0 ∈ {7}: 10 rows each.
        let branches = vec![
            RangeQuery::all(2).with_eq(0, 2),
            RangeQuery::all(2).with_eq(0, 7),
        ];
        let mut v = CountVisitor::default();
        let stats = execute_disjoint_union(&idx, &branches, None, &mut v).expect("disjoint");
        assert_eq!(v.count, 20);
        // The toy scanner scans the whole table once per branch.
        assert_eq!(stats.points_scanned, 200);
    }

    #[test]
    fn union_rejects_overlap() {
        let idx = Scanner(table());
        let branches = vec![
            RangeQuery::all(2).with_range(1, 0, 50),
            RangeQuery::all(2).with_range(1, 50, 99),
        ];
        let mut v = CountVisitor::default();
        let err = execute_disjoint_union(&idx, &branches, None, &mut v);
        assert!(err.is_err());
    }

    #[test]
    fn in_list_decomposition() {
        let base = RangeQuery::all(2).with_range(1, 10, 59);
        let branches = decompose_in_list(&base, 0, &[3, 7, 3]);
        assert_eq!(branches.len(), 2, "duplicates collapse");
        assert_eq!(check_disjoint(&branches), Ok(()));
        let idx = Scanner(table());
        let mut v = CountVisitor::default();
        execute_disjoint_union(&idx, &branches, None, &mut v).expect("disjoint");
        // Rows with d1 in 10..=59 and d0 ∈ {3, 7}: 5 each.
        assert_eq!(v.count, 10);
    }
}
