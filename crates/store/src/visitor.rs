//! Visitors accumulate the result of an aggregation over matching records.
//!
//! The paper's query interface (Appendix A) passes "a Visitor object which
//! will accumulate the statistic of the aggregation". Indexes call
//! [`Visitor::visit`] once per matching row, or [`Visitor::visit_exact_sum`]
//! when an exact physical range lets them push a pre-aggregated result (the
//! §7.1 fast paths).

/// Accumulates an aggregate over the rows an index reports as matching.
pub trait Visitor {
    /// Process one matching row. `row` is the physical row id in the index's
    /// storage order; `value` is the row's value in the aggregation column
    /// (0 when the visitor does not need a value, e.g. COUNT).
    fn visit(&mut self, row: usize, value: u64);

    /// `count` matching rows at once, their aggregation-column values
    /// wrap-summing to `sum` — in place of `count` calls to
    /// [`Visitor::visit`]. The scan kernels use it wherever they know a
    /// group's count and sum without walking its rows (an exact range or an
    /// accepted block, from a cumulative column) or can total them cheaper
    /// than a call per row (the set bits of a probed block's mask).
    ///
    /// Contract: a visitor whose [`supports_exact`](Visitor::supports_exact)
    /// is `true` must end in the same state whether its rows arrive one by
    /// one or as `(count, sum)` groups, however the rows are grouped. The
    /// kernels call this only on such a visitor, which is why the default
    /// body is unreachable: a visitor that needs row ids, row order or the
    /// individual values (`Collect`, `MinMax`) leaves both defaults alone.
    fn visit_exact_sum(&mut self, count: usize, sum: u64) {
        let _ = (count, sum);
        unreachable!("visit_exact_sum is only called on a visitor whose supports_exact() is true")
    }

    /// Whether the visitor needs per-row values (SUM does, COUNT does not).
    /// Indexes use this to skip value-column lookups entirely.
    fn needs_value(&self) -> bool {
        true
    }

    /// Whether the visitor takes [`Visitor::visit_exact_sum`], under the
    /// contract stated there.
    fn supports_exact(&self) -> bool {
        false
    }
}

/// A visitor whose partial results can be combined — the requirement for
/// parallel scans (§8: "different cells can be refined and scanned
/// simultaneously").
pub trait MergeVisitor: Visitor + Send {
    /// Fold another worker's accumulator into this one.
    fn merge_from(&mut self, other: Self);
}

impl MergeVisitor for CountVisitor {
    fn merge_from(&mut self, other: Self) {
        self.count += other.count;
    }
}

impl MergeVisitor for SumVisitor {
    fn merge_from(&mut self, other: Self) {
        self.sum = self.sum.wrapping_add(other.sum);
        self.count += other.count;
    }
}

impl MergeVisitor for MinMaxVisitor {
    fn merge_from(&mut self, other: Self) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
    }
}

impl MergeVisitor for CollectVisitor {
    fn merge_from(&mut self, mut other: Self) {
        self.rows.append(&mut other.rows);
    }
}

/// COUNT(*) visitor.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountVisitor {
    /// Number of rows visited.
    pub count: u64,
}

impl Visitor for CountVisitor {
    #[inline]
    fn visit(&mut self, _row: usize, _value: u64) {
        self.count += 1;
    }

    #[inline]
    fn visit_exact_sum(&mut self, count: usize, _sum: u64) {
        self.count += count as u64;
    }

    fn needs_value(&self) -> bool {
        false
    }

    fn supports_exact(&self) -> bool {
        true
    }
}

/// SUM(column) visitor. Uses wrapping arithmetic: aggregates of synthetic
/// 64-bit data may exceed `u64::MAX`, and the paper's store works modulo 2⁶⁴.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SumVisitor {
    /// Running sum of the aggregation column over visited rows.
    pub sum: u64,
    /// Number of rows visited.
    pub count: u64,
}

impl Visitor for SumVisitor {
    #[inline]
    fn visit(&mut self, _row: usize, value: u64) {
        self.sum = self.sum.wrapping_add(value);
        self.count += 1;
    }

    #[inline]
    fn visit_exact_sum(&mut self, count: usize, sum: u64) {
        self.sum = self.sum.wrapping_add(sum);
        self.count += count as u64;
    }

    fn supports_exact(&self) -> bool {
        true
    }
}

/// Collects the physical row ids of matching records (e.g. to return them).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CollectVisitor {
    /// Row ids of all visited records, in visit order.
    pub rows: Vec<usize>,
}

impl Visitor for CollectVisitor {
    #[inline]
    fn visit(&mut self, row: usize, _value: u64) {
        self.rows.push(row);
    }

    fn needs_value(&self) -> bool {
        false
    }
}

/// MIN/MAX visitor over the aggregation column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinMaxVisitor {
    /// Smallest value seen, `u64::MAX` when nothing visited.
    pub min: u64,
    /// Largest value seen, `0` when nothing visited.
    pub max: u64,
    /// Number of rows visited.
    pub count: u64,
}

impl Default for MinMaxVisitor {
    fn default() -> Self {
        MinMaxVisitor {
            min: u64::MAX,
            max: 0,
            count: 0,
        }
    }
}

impl Visitor for MinMaxVisitor {
    #[inline]
    fn visit(&mut self, _row: usize, value: u64) {
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.count += 1;
    }
}

/// Counts matched points on behalf of [`ScanStats`](crate::ScanStats)
/// while forwarding every call to the wrapped visitor — how each index
/// fills `points_matched` without its visitors knowing.
pub struct MatchCount<'a> {
    inner: &'a mut dyn Visitor,
    /// Rows the wrapped visitor has been shown so far.
    pub matched: u64,
}

impl<'a> MatchCount<'a> {
    /// Wrap `inner`, starting from zero matches.
    pub fn new(inner: &'a mut dyn Visitor) -> Self {
        MatchCount { inner, matched: 0 }
    }
}

impl Visitor for MatchCount<'_> {
    #[inline]
    fn visit(&mut self, row: usize, value: u64) {
        self.matched += 1;
        self.inner.visit(row, value);
    }

    #[inline]
    fn visit_exact_sum(&mut self, count: usize, sum: u64) {
        self.matched += count as u64;
        self.inner.visit_exact_sum(count, sum);
    }

    fn needs_value(&self) -> bool {
        self.inner.needs_value()
    }

    fn supports_exact(&self) -> bool {
        self.inner.supports_exact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_visitor() {
        let mut v = CountVisitor::default();
        v.visit(0, 10);
        v.visit(5, 0);
        v.visit_exact_sum(7, 999);
        assert_eq!(v.count, 9);
        assert!(!v.needs_value());
        assert!(v.supports_exact());
    }

    #[test]
    fn sum_visitor() {
        let mut v = SumVisitor::default();
        v.visit(0, 10);
        v.visit(1, 32);
        v.visit_exact_sum(2, 100);
        assert_eq!(v.sum, 142);
        assert_eq!(v.count, 4);
    }

    #[test]
    fn sum_visitor_wraps() {
        let mut v = SumVisitor::default();
        v.visit(0, u64::MAX);
        v.visit(1, 2);
        assert_eq!(v.sum, 1);
    }

    /// The `visit_exact_sum` contract for the two visitors that opt in: any
    /// grouping of the rows into `(count, wrapping sum)` pairs — empty
    /// groups, one group, one row per group — equals row-by-row visits.
    #[test]
    fn exact_sum_groups_equal_row_by_row_visits() {
        let values = [
            u64::MAX,
            2,
            0,
            u64::MAX - 1,
            1 << 63,
            1 << 63,
            7,
            u64::MAX,
            41,
        ];
        let mut count_rows = CountVisitor::default();
        let mut sum_rows = SumVisitor::default();
        for (row, &v) in values.iter().enumerate() {
            count_rows.visit(row, 0);
            sum_rows.visit(row, v);
        }
        assert_eq!(count_rows.count, values.len() as u64);
        // The true total is far past u64::MAX: the sums below must wrap.
        assert!(values
            .iter()
            .try_fold(0u64, |s, &v| s.checked_add(v))
            .is_none());

        // Group boundaries as the set bits of `cuts`: every composition of
        // the nine rows, an empty group appended to each.
        for cuts in 0u32..1 << (values.len() - 1) {
            let mut count_groups = CountVisitor::default();
            let mut sum_groups = SumVisitor::default();
            let mut counted = MatchCount::new(&mut sum_groups);
            let mut group = (0usize, 0u64);
            for (i, &v) in values.iter().enumerate() {
                group = (group.0 + 1, group.1.wrapping_add(v));
                if cuts >> i & 1 == 1 || i + 1 == values.len() {
                    count_groups.visit_exact_sum(group.0, group.1);
                    counted.visit_exact_sum(group.0, group.1);
                    group = (0, 0);
                }
            }
            count_groups.visit_exact_sum(0, 0);
            counted.visit_exact_sum(0, 0);
            assert_eq!(counted.matched, values.len() as u64, "cuts {cuts:#b}");
            assert_eq!(count_groups, count_rows, "cuts {cuts:#b}");
            assert_eq!(sum_groups, sum_rows, "cuts {cuts:#b}");
        }
    }

    #[test]
    #[should_panic(expected = "supports_exact() is true")]
    fn exact_sum_on_a_row_visitor_is_a_kernel_bug() {
        assert!(!CollectVisitor::default().supports_exact());
        CollectVisitor::default().visit_exact_sum(1, 0);
    }

    #[test]
    fn collect_visitor() {
        let mut v = CollectVisitor::default();
        v.visit(3, 0);
        v.visit(1, 0);
        assert_eq!(v.rows, vec![3, 1]);
    }

    #[test]
    fn merge_visitors() {
        let mut a = CountVisitor::default();
        a.visit(0, 0);
        let mut b = CountVisitor::default();
        b.visit(1, 0);
        b.visit(2, 0);
        a.merge_from(b);
        assert_eq!(a.count, 3);

        let mut s1 = SumVisitor::default();
        s1.visit(0, u64::MAX);
        let mut s2 = SumVisitor::default();
        s2.visit(1, 3);
        s1.merge_from(s2);
        assert_eq!(s1.sum, 2); // wrapping
        assert_eq!(s1.count, 2);

        let mut m1 = MinMaxVisitor::default();
        m1.visit(0, 10);
        let mut m2 = MinMaxVisitor::default();
        m2.visit(1, 3);
        m2.visit(2, 42);
        m1.merge_from(m2);
        assert_eq!((m1.min, m1.max, m1.count), (3, 42, 3));

        let mut c1 = CollectVisitor::default();
        c1.visit(5, 0);
        let mut c2 = CollectVisitor::default();
        c2.visit(9, 0);
        c1.merge_from(c2);
        assert_eq!(c1.rows, vec![5, 9]);
    }

    #[test]
    fn minmax_visitor() {
        let mut v = MinMaxVisitor::default();
        assert_eq!(v.min, u64::MAX);
        v.visit(0, 7);
        v.visit(1, 3);
        v.visit(2, 11);
        assert_eq!((v.min, v.max, v.count), (3, 11, 3));
    }
}
