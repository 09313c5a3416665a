//! Parallel execution over tiered storage is observably identical to the
//! serial tiered path — and, transitively, to the fully-resident scan.
//!
//! `TieredScan` plans segment-aligned chunks (`partition_ranges_aligned`),
//! so no segment is ever split across tasks: under a zero budget the
//! merged fault count equals the serial run's exactly, and under any
//! budget the shared counters (points, blocks, matches) agree with serial
//! once the residency-dependent tier counters are masked with
//! [`ScanStats::sans_tier_counters`]. A transient injected I/O fault is
//! absorbed by the per-chunk retry without duplicating or losing rows.

mod common;

use common::Parallel;
use flood_exec::QueryExecutor;
use flood_store::{
    run_tasks_merged, CountVisitor, FailingBackend, MemBackend, PartitionedScan, RangeQuery,
    ScanStats, StorageBackend, SumVisitor, Table, TierConfig, TieredScan,
};
use flood_testkit::{answer, serial, splitmix, Run};
use std::sync::Arc;

fn table(n: u64, seed: u64) -> Table {
    let mut s = seed;
    Table::from_columns(vec![
        (0..n).collect(),
        (0..n).map(|_| splitmix(&mut s) % 1_000).collect(),
        (0..n).map(|_| splitmix(&mut s) % 50).collect(),
    ])
}

fn seal(t: &Table, budget: usize) -> TieredScan {
    TieredScan::seal(
        t,
        Arc::new(MemBackend::new()),
        TierConfig {
            budget_bytes: budget,
            segment_blocks: 2,
        },
    )
    .unwrap()
}

fn queries() -> Vec<(RangeQuery, Option<usize>)> {
    vec![
        (RangeQuery::all(3), None),                            // match-all
        (RangeQuery::all(3).with_range(0, 1, 2_000), None),    // probing wide
        (RangeQuery::all(3).with_range(1, 100, 199), Some(1)), // ~10% + SUM
        (RangeQuery::all(3).with_range(2, 7, 7), Some(0)),     // ~2% equality
        (
            RangeQuery::all(3)
                .with_range(0, 300, 2_700)
                .with_range(1, 0, 499),
            Some(2),
        ),
        (RangeQuery::all(3).with_range(1, 5_000, 6_000), None), // empty
    ]
}

/// Mask residency-dependent counters before comparing.
fn shared(s: &ScanStats) -> ScanStats {
    s.sans_tier_counters()
}

#[test]
fn parallel_matches_serial_for_every_visitor_and_budget() {
    let t = table(4_000, 7);
    for budget in [0usize, 4 << 10, 1 << 30] {
        let idx = seal(&t, budget);
        for threads in [1usize, 2, 4] {
            let exec = QueryExecutor::with_threads(threads);
            for (q, agg) in &queries() {
                let label = format!("budget={budget} threads={threads} q={q:?}");

                let (want, want_stats) = answer(&serial(&idx, q), *agg, *agg);
                let (got, got_stats) = answer(&Parallel(&exec, &idx, q), *agg, *agg);
                assert_eq!(got.sorted(), want.sorted(), "{label}");
                // Every kind's stats, residency-dependent counters masked.
                assert_eq!(
                    got_stats.map(|s| shared(&s)),
                    want_stats.map(|s| shared(&s)),
                    "stats, {label}"
                );
            }
        }
    }
}

#[test]
fn zero_budget_fault_accounting_is_exact_across_tasks() {
    // Budget 0: nothing stays resident, so every needed segment faults on
    // every run — the parallel merge must reproduce serial's counters
    // exactly, because segment-aligned cuts give each segment to exactly
    // one task.
    let t = table(4_000, 11);
    let idx = seal(&t, 0);
    let q = RangeQuery::all(3).with_range(1, 100, 399);
    let (_, ss) = serial(&idx, &q).run::<SumVisitor>(Some(1));
    assert!(ss.segments_faulted > 0, "probing query must fault: {ss:?}");
    for threads in [2usize, 4] {
        let exec = QueryExecutor::with_threads(threads);
        let (_, ps) = exec.execute::<SumVisitor>(&idx, &q, Some(1));
        assert_eq!(
            ps.segments_faulted, ss.segments_faulted,
            "{threads} threads"
        );
        assert_eq!(
            ps.segments_skipped, ss.segments_skipped,
            "{threads} threads"
        );
        assert_eq!(ps.segments_hit, 0, "budget 0 never hits");
    }
}

#[test]
fn parallel_cuts_respect_segment_boundaries() {
    let t = table(4_000, 13);
    let idx = seal(&t, 0);
    let seg_rows = idx.data().segment_rows();
    let plan = idx.plan_scan(&RangeQuery::all(3), None, 8);
    assert!(plan.tasks() > 1, "a 4 000-row table must split at 8 tasks");
    // Indirect boundary check: merged chunk stats from a plan of any width
    // equal the serial run's — a segment split across two tasks would
    // double-count its fault under budget 0.
    let (v, merged) = run_tasks_merged::<CountVisitor>(&*plan);
    let (sv, ss) = serial(&idx, &RangeQuery::all(3)).run::<CountVisitor>(None);
    assert_eq!(v.count, sv.count);
    assert_eq!(shared(&merged), shared(&ss));
    assert_eq!(merged.segments_faulted, ss.segments_faulted);
    assert!(seg_rows >= 256, "segment_blocks=2 → 256-row segments");
}

#[test]
fn transient_fault_under_parallel_execution_heals_per_chunk() {
    let failing = Arc::new(FailingBackend::new(Arc::new(MemBackend::new())));
    let t = table(2_048, 17);
    let idx = TieredScan::new(
        flood_store::TieredTable::seal(
            &t,
            failing.clone() as Arc<dyn StorageBackend>,
            TierConfig {
                budget_bytes: 0,
                segment_blocks: 2,
            },
        )
        .unwrap(),
    );
    let q = RangeQuery::all(3).with_range(1, 0, 499);
    let (want, _) = serial(&idx, &q).run::<CountVisitor>(None);

    // One injected failure somewhere in the parallel run: the owning
    // chunk retries and the merged result is complete and unduplicated.
    let exec = QueryExecutor::with_threads(4);
    failing.fail_load(3);
    let (got, _) = exec.execute::<CountVisitor>(&idx, &q, None);
    assert_eq!(got.count, want.count, "retry lost or duplicated rows");
    assert_eq!(failing.injected(), 1, "the injection actually fired");
}
