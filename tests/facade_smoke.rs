//! Smoke test for the `flood` facade: every re-export resolves, and a
//! trivial build-index-and-query round-trip runs end to end through the
//! facade paths alone.

use flood::baselines::FullScan;
use flood::core::{FloodBuilder, Layout};
use flood::data::{Dataset, DatasetKind};
use flood::learned::Rmi;
use flood::store::{CountVisitor, MultiDimIndex, RangeQuery, Table};

/// Every workspace crate is reachable under its facade alias.
#[test]
fn reexports_resolve() {
    // One load-bearing type per re-exported crate; the function type-checks
    // only if all five module aliases point at the right crates.
    fn touch(_: &Table, _: &Rmi, _: &FloodBuilder, _: &FullScan, _: &DatasetKind) {}
    let _ = touch;
}

/// Build a small index through the facade and check a query against the
/// brute-force oracle.
#[test]
fn end_to_end_round_trip() {
    let table = Table::from_columns(vec![
        (0..2_000u64).map(|i| i % 50).collect(),
        (0..2_000u64).map(|i| (i * 13) % 400).collect(),
        (0..2_000u64).collect(),
    ]);
    let layout = Layout::new(vec![0, 1, 2], vec![4, 4]);
    let index = FloodBuilder::new().layout(layout).build(&table);

    let q = RangeQuery::all(3)
        .with_range(0, 10, 30)
        .with_range(2, 100, 1_500);
    let mut got = CountVisitor::default();
    index.execute(&q, None, &mut got);

    assert_eq!(got.count, flood_testkit::count(&table, &q));
    assert!(got.count > 0, "query should match something");
}

/// The synthetic dataset generators are reachable and deterministic through
/// the facade.
#[test]
fn dataset_generation_is_deterministic() {
    let a: Dataset = DatasetKind::Sales.generate(500, 7);
    let b: Dataset = DatasetKind::Sales.generate(500, 7);
    assert_eq!(a.table.len(), 500);
    let cols = a.table.dims();
    for c in 0..cols {
        for r in 0..a.table.len() {
            assert_eq!(a.table.value(r, c), b.table.value(r, c), "row {r} col {c}");
        }
    }
}
