//! The brute-force oracle, and one runner that answers a query under every
//! visitor kind, so that any two ways of answering — an index and the
//! oracle, parallel and serial, a kernel and the row loop — compare with
//! one `assert_eq!`.

use flood_store::{
    CollectVisitor, CountVisitor, MergeVisitor, MinMaxVisitor, MultiDimIndex, RangeQuery,
    ScanStats, SumVisitor, Table, Visitor,
};

/// What one query returns under each visitor kind: COUNT, SUM and MIN/MAX
/// over their aggregation columns, and the matched rows. From [`answer`]
/// the rows are physical row ids in visit order; from [`oracle`] and
/// [`Answer::tuples`] they are value tuples, sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer<R> {
    /// COUNT.
    pub count: u64,
    /// SUM over the sum column.
    pub sum: SumVisitor,
    /// MIN and MAX over the min/max column.
    pub minmax: MinMaxVisitor,
    /// The matched rows.
    pub rows: Vec<R>,
}

impl Answer<usize> {
    /// The same answer with its row ids sorted: runs that split a query
    /// into tasks may visit rows in another order.
    pub fn sorted(mut self) -> Self {
        self.rows.sort_unstable();
        self
    }

    /// The same answer with its rows as value tuples of `data` (the table
    /// the row ids index), sorted: comparable across layouts and with the
    /// [`oracle`].
    pub fn tuples(&self, data: &Table) -> Answer<Vec<u64>> {
        let mut rows: Vec<Vec<u64>> = self.rows.iter().map(|&r| data.row(r)).collect();
        rows.sort_unstable();
        Answer {
            count: self.count,
            sum: self.sum,
            minmax: self.minmax,
            rows,
        }
    }
}

/// The rows of `t` that `q` matches, ascending. Each value is tested with
/// [`RangeQuery::matches_dim`], not through [`RangeQuery::checks`], the
/// form the scan kernels under test take.
fn matching<'a>(t: &'a Table, q: &'a RangeQuery) -> impl Iterator<Item = usize> + 'a {
    assert_eq!(q.dims(), t.dims(), "query and table arity differ");
    (0..t.len()).filter(move |&r| (0..q.dims()).all(|d| q.matches_dim(d, t.value(r, d))))
}

/// COUNT of `q` over `t`, row by row.
pub fn count(t: &Table, q: &RangeQuery) -> u64 {
    matching(t, q).count() as u64
}

/// Every visitor kind's answer to `q` over `t`, row by row: SUM over
/// `sum_dim` and MIN/MAX over `minmax_dim` (a visitor given no column sees
/// the value 0, as under an index).
pub fn oracle(
    t: &Table,
    q: &RangeQuery,
    sum_dim: Option<usize>,
    minmax_dim: Option<usize>,
) -> Answer<Vec<u64>> {
    let mut a = Answer {
        count: 0,
        sum: SumVisitor::default(),
        minmax: MinMaxVisitor::default(),
        rows: Vec::new(),
    };
    let value = |r, dim: Option<usize>| dim.map_or(0, |d| t.value(r, d));
    for r in matching(t, q) {
        a.count += 1;
        a.sum.visit(r, value(r, sum_dim));
        a.minmax.visit(r, value(r, minmax_dim));
        a.rows.push(t.row(r));
    }
    a.rows.sort_unstable();
    a
}

/// One query's source of answers: runs it with a fresh visitor of the
/// kind asked for, over aggregation column `agg`.
pub trait Run {
    /// The visitor after the run, and the run's stats.
    fn run<V: MergeVisitor + Default>(&self, agg: Option<usize>) -> (V, ScanStats);
}

/// A closure that feeds one query's matches to a visitor.
impl<F: Fn(Option<usize>, &mut dyn Visitor) -> ScanStats> Run for F {
    fn run<V: MergeVisitor + Default>(&self, agg: Option<usize>) -> (V, ScanStats) {
        let mut v = V::default();
        let stats = self(agg, &mut v);
        (v, stats)
    }
}

/// `q` through `index`'s serial [`MultiDimIndex::execute`].
pub fn serial<'a>(
    index: &'a (impl MultiDimIndex + ?Sized),
    q: &'a RangeQuery,
) -> impl Fn(Option<usize>, &mut dyn Visitor) -> ScanStats + 'a {
    move |agg, v| index.execute(q, agg, v)
}

/// `run`'s answer under every visitor kind — COUNT, SUM over `sum_dim`,
/// MIN/MAX over `minmax_dim`, and the collected rows — with each run's
/// stats, in that order.
pub fn answer(
    run: &impl Run,
    sum_dim: Option<usize>,
    minmax_dim: Option<usize>,
) -> (Answer<usize>, [ScanStats; 4]) {
    let (count, count_stats) = run.run::<CountVisitor>(None);
    let (sum, sum_stats) = run.run::<SumVisitor>(sum_dim);
    let (minmax, minmax_stats) = run.run::<MinMaxVisitor>(minmax_dim);
    let (collect, collect_stats) = run.run::<CollectVisitor>(None);
    let answer = Answer {
        count: count.count,
        sum,
        minmax,
        rows: collect.rows,
    };
    (
        answer,
        [count_stats, sum_stats, minmax_stats, collect_stats],
    )
}
