//! The master correctness oracle: every index in the workspace, the full
//! scan included, must return exactly the brute-force answer on every
//! dataset × workload combination, for COUNT and SUM aggregations.

use flood::baselines::{
    ClusteredIndex, FullScan, GridFile, Hyperoctree, KdTree, RStarTree, UbTree, ZOrderIndex,
};
use flood::core::{FloodBuilder, Layout};
use flood::data::{DatasetKind, Workload, WorkloadKind};
use flood::store::{CountVisitor, MultiDimIndex, RangeQuery, SumVisitor, Table};
use flood_testkit::{oracle, Answer};

const N: usize = 8_000;
const QUERIES: usize = 25;

fn check_index(
    idx: &dyn MultiDimIndex,
    truth: &[Answer<Vec<u64>>],
    queries: &[RangeQuery],
    agg: usize,
) {
    for (i, (q, want)) in queries.iter().zip(truth).enumerate() {
        let name = idx.name();
        let mut count = CountVisitor::default();
        let stats = idx.execute(q, None, &mut count);
        assert_eq!(
            count.count, want.count,
            "{name}: COUNT mismatch on query {i}"
        );
        assert_eq!(
            stats.points_matched, count.count,
            "{name}: stats mismatch on query {i}"
        );
        let mut sum = SumVisitor::default();
        idx.execute(q, Some(agg), &mut sum);
        assert_eq!(sum.sum, want.sum.sum, "{name}: SUM mismatch on query {i}");
    }
}

fn all_dims(t: &Table) -> Vec<usize> {
    (0..t.dims()).collect()
}

/// Build every index over `stored` and check it against the brute-force
/// oracle over `plain` (the same rows, uncompressed).
fn check_all(stored: &Table, plain: &Table, queries: &[RangeQuery], agg: usize) {
    let truth: Vec<_> = queries
        .iter()
        .map(|q| oracle(plain, q, Some(agg), None))
        .collect();
    let check = |idx: &dyn MultiDimIndex| check_index(idx, &truth, queries, agg);
    check(&FullScan::build(stored));
    let dims = all_dims(stored);
    check(&ClusteredIndex::build(stored, 0));
    check(&ZOrderIndex::build(stored, dims.clone()));
    check(&UbTree::build(stored, dims.clone()));
    check(&Hyperoctree::build(stored, dims.clone()));
    check(&KdTree::build(stored, dims.clone()));
    check(&RStarTree::build(stored, dims.clone()));
    if let Ok(gf) = GridFile::build(stored, dims.clone()) {
        check(&gf);
    }
    // Flood with a hand layout over the first three dims.
    let flood = FloodBuilder::new()
        .layout(Layout::new(vec![0, 1, 2], vec![6, 5]))
        .build(stored);
    check(&flood);
    // Flood histogram variant.
    let hist = FloodBuilder::new()
        .layout(Layout::histogram(vec![0, 1], vec![8, 8]))
        .build(stored);
    check(&hist);
}

fn run_dataset(kind: DatasetKind, wkind: WorkloadKind) {
    let ds = kind.generate(N, 0xE0);
    let w = Workload::generate(wkind, &ds, QUERIES, 0.002, 0xE0);
    let queries: Vec<RangeQuery> = w.train.into_iter().chain(w.test).collect();
    let t = &ds.table;
    let agg = kind.agg_dim();
    check_all(t, t, &queries, agg);
    // Again over block-compressed columns (`Table::permuted` keeps them
    // compressed), where every index's scans take the kernel's block path;
    // the oracle stays on the plain table, off the path under test.
    let mut compressed = t.clone();
    compressed.compress();
    check_all(&compressed, t, &queries, agg);
}

#[test]
fn sales_olap() {
    run_dataset(DatasetKind::Sales, WorkloadKind::OlapSkewed);
}

#[test]
fn tpch_olap() {
    run_dataset(DatasetKind::TpcH, WorkloadKind::OlapSkewed);
}

#[test]
fn osm_olap() {
    run_dataset(DatasetKind::Osm, WorkloadKind::OlapSkewed);
}

#[test]
fn perfmon_olap() {
    run_dataset(DatasetKind::Perfmon, WorkloadKind::OlapSkewed);
}

#[test]
fn tpch_point_lookups() {
    run_dataset(DatasetKind::TpcH, WorkloadKind::OltpTwoKeys);
}

#[test]
fn sales_mixed() {
    run_dataset(DatasetKind::Sales, WorkloadKind::Mixed);
}

#[test]
fn osm_many_dims() {
    run_dataset(DatasetKind::Osm, WorkloadKind::ManyDims);
}
