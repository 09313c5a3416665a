//! Property suite: parallel execution is observably identical to serial.
//!
//! For arbitrary tables, queries and thread counts, `QueryExecutor::execute`
//! (partitioned single-query scans) and `execute_batch` produce the same
//! results and the same aggregate [`ScanStats`] as the serial
//! `MultiDimIndex::execute` path, for Count/Sum/MinMax/Collect visitors.
//! `CollectVisitor` rows are compared as sorted sets — task order is the
//! one legitimate difference.

use flood_baselines::{
    ClusteredIndex, FullScan, GridFile, Hyperoctree, KdTree, RStarTree, ZOrderIndex,
};
use flood_core::{FloodBuilder, Layout};
mod common;

use common::Parallel;
use flood_exec::QueryExecutor;
use flood_store::{
    assert_stats_equivalent, CollectVisitor, CountVisitor, PartitionedScan, RangeQuery, ScanStats,
    SumVisitor, Table,
};
use flood_testkit::{answer, arb_rows, cases, rows_table, serial, width_filter, width_query, Run};
use proptest::prelude::*;

/// Assert parallel == serial for every visitor kind on one index: SUM over
/// column 2, MIN/MAX over column 1, collected rows as sets.
fn check_index(index: &dyn PartitionedScan, q: &RangeQuery, threads: usize) {
    let exec = QueryExecutor::with_threads(threads);
    let (want, want_stats) = answer(&serial(index, q), Some(2), Some(1));
    let (got, got_stats) = answer(&Parallel(&exec, index, q), Some(2), Some(1));
    assert_eq!(got.sorted(), want.sorted(), "{threads} threads");
    assert_eq!(got_stats, want_stats, "stats, {threads} threads");
}

/// [`check_index`] on the five tree/curve baselines, with pages small
/// enough that their plans hold many ranges, exact and checked.
fn check_tree_baselines(table: &Table, q: &RangeQuery, threads: usize) {
    let dims = || vec![0, 1, 2];
    let grid = GridFile::build_with_page_size(table, dims(), 16, 1 << 16);
    for index in [
        &KdTree::build_with_page_size(table, dims(), 16) as &dyn PartitionedScan,
        &Hyperoctree::build_with_page_size(table, dims(), 16),
        &RStarTree::build_with_page_size(table, dims(), 16, 4),
        &ZOrderIndex::build_with_page_size(table, dims(), 16),
        &grid.expect("64³ values fit the directory"),
    ] {
        check_index(index, q, threads);
    }
}

/// Non-property anchor: the env-sized executor (what `FLOOD_THREADS=N`
/// selects — CI forces it to 2) agrees with serial execution end to end.
#[test]
fn env_sized_executor_matches_serial() {
    let rows: Vec<(u64, u64, u64)> = (0..5_000u64)
        .map(|i| (i % 61, (i * 7) % 53, (i * 13) % 47))
        .collect();
    let table = rows_table(&rows);
    let flood = FloodBuilder::new()
        .layout(Layout::new(vec![0, 1, 2], vec![6, 6]))
        .build(&table);
    let q = width_query([Some((5, 30)), None, Some((0, 20))]);
    let exec = QueryExecutor::from_env();
    check_index(&flood, &q, exec.threads());
    let (v, s) = exec.execute::<CountVisitor>(&flood, &q, None);
    let (want, want_stats) = serial(&flood, &q).run::<CountVisitor>(None);
    assert_eq!(v.count, want.count);
    assert_eq!(s, want_stats);

    // Same end-to-end check with compressed storage, i.e. packed-domain
    // scanning with block skipping (the default mode under compression).
    let packed = FloodBuilder::new()
        .layout(Layout::new(vec![0, 1, 2], vec![6, 6]))
        .compress(true)
        .build(&table);
    check_index(&packed, &q, exec.threads());
    let (v, s) = exec.execute::<CountVisitor>(&packed, &q, None);
    let (want, want_stats) = serial(&packed, &q).run::<CountVisitor>(None);
    assert_eq!(v.count, want.count);
    assert_eq!(s, want_stats);
    let (plain_want, _) = serial(&flood, &q).run::<CountVisitor>(None);
    assert_eq!(
        v.count, plain_want.count,
        "compression must not change results"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    #[test]
    fn parallel_execute_equals_serial(
        rows in arb_rows(64, 0..400),
        f0 in width_filter(64, 32),
        f1 in width_filter(64, 32),
        f2 in width_filter(64, 32),
        threads in 1usize..9,
    ) {
        let table = rows_table(&rows);
        let q = width_query([f0, f1, f2]);

        let flood = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![4, 4]))
            .build(&table);
        check_index(&flood, &q, threads);

        let full = FullScan::build(&table);
        check_index(&full, &q, threads);
        check_tree_baselines(&table, &q, threads);

        if !rows.is_empty() {
            let clustered = ClusteredIndex::build(&table, 0);
            check_index(&clustered, &q, threads);
        }
    }

    /// Over compressed storage the scan kernel takes its block path: block
    /// skipping must leave parallel ≡ serial intact (full stats equality,
    /// `blocks_*` counters included — block-aligned chunking guarantees each
    /// block-subrange is classified by exactly one task), and every index
    /// built compressed must agree bit-for-bit with the same index built
    /// plain (the row path) modulo the counters only the block path records.
    #[test]
    fn packed_scans_parallel_equal_serial_and_decode_first(
        rows in arb_rows(64, 0..400),
        f0 in width_filter(64, 32),
        f1 in width_filter(64, 32),
        f2 in width_filter(64, 32),
        threads in 1usize..9,
    ) {
        let table = rows_table(&rows);
        let mut compressed = table.clone();
        compressed.compress();
        let q = width_query([f0, f1, f2]);

        let layout = || Layout::new(vec![0, 1, 2], vec![4, 4]);
        let flood = FloodBuilder::new()
            .layout(layout())
            .compress(true)
            .cumulative_sum(2)
            .build(&table);
        check_index(&flood, &q, threads);
        let plain = FloodBuilder::new()
            .layout(layout())
            .cumulative_sum(2)
            .build(&table);
        let (pv, ps) = serial(&flood, &q).run::<SumVisitor>(Some(2));
        let (dv, ds) = serial(&plain, &q).run::<SumVisitor>(Some(2));
        prop_assert_eq!((pv.sum, pv.count), (dv.sum, dv.count));
        assert_stats_equivalent(&ps, &ds, "flood compressed vs plain build");

        let full = FullScan::build(&compressed);
        check_index(&full, &q, threads);
        let (pv, ps) = serial(&full, &q).run::<CollectVisitor>(None);
        let (dv, ds) = serial(&FullScan::build(&table), &q).run::<CollectVisitor>(None);
        prop_assert_eq!(&pv.rows, &dv.rows);
        assert_stats_equivalent(&ps, &ds, "full scan compressed vs plain build");
        check_tree_baselines(&compressed, &q, threads);

        if !rows.is_empty() {
            let clustered = ClusteredIndex::build(&compressed, 0);
            check_index(&clustered, &q, threads);
            let (pv, ps) = serial(&clustered, &q).run::<CountVisitor>(None);
            let (dv, ds) = serial(&ClusteredIndex::build(&table, 0), &q).run::<CountVisitor>(None);
            prop_assert_eq!(pv.count, dv.count);
            assert_stats_equivalent(&ps, &ds, "clustered compressed vs plain build");
        }
    }

    #[test]
    fn batch_equals_serial_loop(
        rows in arb_rows(64, 1..300),
        filters in proptest::collection::vec(
            (width_filter(64, 32), width_filter(64, 32), width_filter(64, 32)), 0..12),
        threads in 1usize..9,
    ) {
        let table = rows_table(&rows);
        let queries: Vec<RangeQuery> = filters
            .into_iter()
            .map(|(a, b, c)| width_query([a, b, c]))
            .collect();
        let flood = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![4, 4]))
            .build(&table);
        let exec = QueryExecutor::with_threads(threads);

        let batch = exec.execute_batch::<SumVisitor, _>(&flood, &queries, Some(2));
        prop_assert_eq!(batch.len(), queries.len());
        let mut agg_serial = ScanStats::default();
        let mut agg_parallel = ScanStats::default();
        for (q, (v, s)) in queries.iter().zip(&batch) {
            let (want, want_stats) = serial(&flood, q).run::<SumVisitor>(Some(2));
            prop_assert_eq!(v.sum, want.sum);
            prop_assert_eq!(v.count, want.count);
            prop_assert_eq!(*s, want_stats);
            agg_serial.merge(&want_stats);
            agg_parallel.merge(s);
        }
        prop_assert_eq!(agg_parallel, agg_serial);

        // Collect visitors over a batch: row sets per query match too.
        let batch = exec.execute_batch::<CollectVisitor, _>(&flood, &queries, None);
        for (q, (v, _)) in queries.iter().zip(&batch) {
            let (want, _) = serial(&flood, q).run::<CollectVisitor>(None);
            let mut got = v.rows.clone();
            let mut exp = want.rows.clone();
            got.sort_unstable();
            exp.sort_unstable();
            prop_assert_eq!(got, exp);
        }
    }

    /// Metric conservation across the parallel merge: bridging every
    /// per-query stats record into a `flood-obs` registry accumulates
    /// exactly the serial totals (no task double-counted, none dropped,
    /// for any thread count), the pool's own accounting sees each task
    /// exactly once, and a histogram fed one observation per query reports
    /// `count` = queries and `sum` = the serial counter it mirrors.
    #[test]
    fn observed_batch_conserves_serial_totals(
        rows in arb_rows(64, 1..300),
        filters in proptest::collection::vec(
            (width_filter(64, 32), width_filter(64, 32), width_filter(64, 32)), 1..10),
        threads in 1usize..9,
    ) {
        let table = rows_table(&rows);
        let queries: Vec<RangeQuery> = filters
            .into_iter()
            .map(|(a, b, c)| width_query([a, b, c]))
            .collect();
        let flood = FloodBuilder::new()
            .layout(Layout::new(vec![0, 1, 2], vec![4, 4]))
            .build(&table);
        let exec = QueryExecutor::with_threads(threads);

        let registry = flood_obs::Registry::new();
        let pool = flood_exec::PoolMetrics::register(&registry, "pool");
        let scan = flood_store::ScanStatsMetrics::register(&registry, "scan");
        let per_query = registry.histogram("scan", "points_per_query");
        let batch = exec.execute_batch_observed::<CountVisitor, _>(
            &flood, &queries, None, Some(&pool));
        let mut serial_total = ScanStats::default();
        for (q, (v, s)) in queries.iter().zip(&batch) {
            scan.record(s);
            per_query.record(s.points_scanned);
            let (want, want_stats) = serial(&flood, q).run::<CountVisitor>(None);
            prop_assert_eq!(v.count, want.count);
            serial_total.merge(&want_stats);
        }

        let snap = registry.snapshot();
        prop_assert_eq!(snap.counter("pool", "tasks"), Some(queries.len() as u64));
        prop_assert_eq!(snap.counter("pool", "runs"), Some(1));
        for (name, want) in [
            ("points_scanned", serial_total.points_scanned),
            ("points_matched", serial_total.points_matched),
            ("cells_visited", serial_total.cells_visited),
            ("cells_projected", serial_total.cells_projected),
            ("refinements", serial_total.refinements),
            ("ranges_scanned", serial_total.ranges_scanned),
        ] {
            prop_assert_eq!(snap.counter("scan", name), Some(want), "{}", name);
        }
        let h = snap.histogram("scan", "points_per_query").expect("histogram present");
        prop_assert_eq!(h.count, queries.len() as u64);
        prop_assert_eq!(h.sum, serial_total.points_scanned);
    }
}
