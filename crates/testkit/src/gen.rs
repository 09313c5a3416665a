//! Table and query builders, and the proptest strategies over them. The
//! vendored proptest has no `prop_flat_map`, so structure that depends on a
//! draw (a table's columns, a query's dimensions) is built from a drawn
//! seed through [`Lcg`].

use crate::Lcg;
use flood_store::{RangeQuery, Table};
use proptest::prelude::*;
use std::ops::Range;

/// `n` rows; column `d` holds draws from one [`Lcg::new`]`(seed, 33)`
/// stream modulo `domains[d]`, filled column after column.
pub fn lcg_table(n: usize, seed: u64, domains: &[u64]) -> Table {
    let mut s = Lcg::new(seed, 33);
    let cols = domains
        .iter()
        .map(|&domain| (0..n).map(|_| s.next_u64() % domain).collect());
    Table::from_columns(cols.collect())
}

/// [`lcg_table`] over a row count drawn from `rows` and a drawn seed.
pub fn arb_lcg_table<const D: usize>(
    rows: Range<usize>,
    domains: [u64; D],
) -> impl Strategy<Value = Table> {
    (rows, any::<u64>()).prop_map(move |(n, seed)| lcg_table(n, seed, &domains))
}

/// A 4-column table with a planted soft functional dependency
/// `d1 ≈ 2·d0 + noise` (noise below `noise_w`), which `outlier_pct`% of the
/// rows break (a uniform d1); d2 and d3 are independent.
pub fn fd_table(n: usize, seed: u64, noise_w: u64, outlier_pct: u32) -> Table {
    let mut s = Lcg::new(seed, 33);
    let host: Vec<u64> = (0..n).map(|_| s.next_u64() % 10_000).collect();
    let dep: Vec<u64> = host
        .iter()
        .map(|&h| {
            if s.next_u64() % 100 < outlier_pct as u64 {
                s.next_u64() % 30_000 // broken row: no relation to the host
            } else {
                2 * h + s.next_u64() % noise_w
            }
        })
        .collect();
    let c2: Vec<u64> = (0..n).map(|_| s.next_u64() % 64).collect();
    let c3: Vec<u64> = (0..n).map(|_| s.next_u64() % (1 << 20)).collect();
    Table::from_columns(vec![host, dep, c2, c3])
}

/// A query over `dims` dimensions filtering the `d`-th to `[lo, hi]`
/// wherever the `d`-th bound is `Some((lo, hi))`.
pub fn query(dims: usize, bounds: impl IntoIterator<Item = Option<(u64, u64)>>) -> RangeQuery {
    let filtered = bounds.into_iter().enumerate();
    filtered.fold(RangeQuery::all(dims), |q, (d, b)| match b {
        Some((lo, hi)) => q.with_range(d, lo, hi),
        None => q,
    })
}

/// A range between two draws from `0..domain`.
pub fn span(domain: u64) -> impl Strategy<Value = Option<(u64, u64)>> {
    (0..domain, 0..domain).prop_map(|(a, b)| Some((a.min(b), a.max(b))))
}

/// A query over `dims` dimensions, each bound drawn from `bound`.
pub fn arb_query(
    dims: usize,
    bound: impl Strategy<Value = Option<(u64, u64)>>,
) -> impl Strategy<Value = RangeQuery> {
    proptest::collection::vec(bound, dims).prop_map(move |bs| query(dims, bs))
}

/// One row of a three-column table.
pub type Row3 = (u64, u64, u64);

/// `len` rows of three columns, each value in `0..domain`.
pub fn arb_rows(domain: u64, len: Range<usize>) -> impl Strategy<Value = Vec<Row3>> {
    proptest::collection::vec((0..domain, 0..domain, 0..domain), len)
}

/// The three-column table holding `rows`.
pub fn rows_table(rows: &[Row3]) -> Table {
    Table::from_columns(vec![
        rows.iter().map(|r| r.0).collect(),
        rows.iter().map(|r| r.1).collect(),
        rows.iter().map(|r| r.2).collect(),
    ])
}

/// One dimension's filter as `(lo, width)`, `None` leaving it unbounded:
/// a range of width below `width`, or a width-0 one (an equality), its
/// lower end below `lo`.
pub type WidthFilter = Option<(u64, u64)>;

/// No filter, a range, or an equality, in equal parts.
pub fn width_filter(lo: u64, width: u64) -> impl Strategy<Value = WidthFilter> {
    prop_oneof![
        Just(None),
        (0..lo, 0..width).prop_map(Some),
        (0..lo, 0u64..1).prop_map(Some), // near-equality
    ]
}

/// The three-dimension query of three [`WidthFilter`]s.
pub fn width_query(filters: [WidthFilter; 3]) -> RangeQuery {
    query(3, filters.map(|f| f.map(|(lo, w)| (lo, lo + w))))
}

/// `n` rows of three columns: Knuth's multiplicative hash of the row id
/// and `col1` of it, both modulo 10 000, then the row id itself.
pub fn hashed_table(n: u64, col1: impl Fn(u64) -> u64) -> Table {
    Table::from_columns(vec![
        (0..n).map(|i| (i * 2_654_435_761) % 10_000).collect(),
        (0..n).map(|i| col1(i) % 10_000).collect(),
        (0..n).collect(),
    ])
}

/// `n` rows of three columns: the row id times the primes 7 919 and
/// 104 729, both modulo 10 000, then the row id itself.
pub fn prime_table(n: u64) -> Table {
    Table::from_columns(vec![
        (0..n).map(|i| (i * 7_919) % 10_000).collect(),
        (0..n).map(|i| (i * 104_729) % 10_000).collect(),
        (0..n).collect(),
    ])
}

/// Five queries over a [`hashed_table`]: everything, a range of d0, a box
/// over d0 × d1, row ids 100 to `id_hi` (d2), and one value of d0.
pub fn hashed_queries(id_hi: u64) -> Vec<RangeQuery> {
    vec![
        RangeQuery::all(3),
        RangeQuery::all(3).with_range(0, 100, 2_000),
        RangeQuery::all(3)
            .with_range(0, 0, 5_000)
            .with_range(1, 100, 900),
        RangeQuery::all(3).with_range(2, 100, id_hi),
        RangeQuery::all(3).with_eq(0, 761),
    ]
}

/// `n` rows of two columns: the row id (sorted), then a value column for
/// SUM probes, the row id times 31 modulo 997.
pub fn id_table(n: u64) -> Table {
    Table::from_columns(vec![
        (0..n).collect(),
        (0..n).map(|i| (i * 31) % 997).collect(),
    ])
}
