//! Property suite: serving under layout swaps is never torn.
//!
//! The contract `flood-serve` exists to uphold: under arbitrary
//! interleavings of queries and forced swaps, every result is
//! bit-identical to a serial run against *either* the old or the new
//! layout — never a mix of the two. Three generators pin it:
//!
//! 1. arbitrary tables × queries × swap/query interleavings, executed
//!    deterministically one operation at a time;
//! 2. arbitrary tables × queries × swap counts, with real reader threads
//!    racing a swapper thread;
//! 3. arbitrary tables × queries × batch sizes × swap schedules through
//!    [`FloodServer`]'s batched admission, with the aggregate
//!    [`ScanStats`] merge checked exactly as in `prop_parallel.rs`.
//!
//! Identity is checked against the *specific* epoch each result reports —
//! stronger than "old or new": a torn read would match neither layout's
//! serial stats bit-for-bit.

use flood_core::{FloodBuilder, FloodIndex, Layout};
use flood_serve::{FloodServer, PublishedIndex, ServeConfig};
use flood_store::{CollectVisitor, MultiDimIndex, RangeQuery, ScanStats, SumVisitor, Table};
use flood_testkit::{arb_rows, rows_table, width_filter, width_query};
use proptest::prelude::*;

/// One reader's record of a served query: (epoch, query index, sorted
/// rows, stats).
type ReaderRecord = (u64, usize, Vec<usize>, ScanStats);

fn query_strategy() -> impl Strategy<Value = RangeQuery> {
    let f = || width_filter(64, 32);
    (f(), f(), f()).prop_map(|(a, b, c)| width_query([a, b, c]))
}

/// The two layouts swaps alternate between: different dimension orders,
/// so their serial [`ScanStats`] genuinely differ on most queries.
fn layout_for_epoch(epoch: u64) -> Layout {
    if epoch % 2 == 0 {
        Layout::new(vec![0, 1, 2], vec![4, 4])
    } else {
        Layout::new(vec![2, 1, 0], vec![4, 4])
    }
}

fn build_epoch(table: &Table, epoch: u64) -> FloodIndex {
    FloodBuilder::new()
        .layout(layout_for_epoch(epoch))
        .build(table)
}

/// Serial reference: rows (sorted) + bit-exact stats for `q` on `index`.
fn reference(index: &FloodIndex, q: &RangeQuery) -> (Vec<usize>, ScanStats) {
    let mut v = CollectVisitor::default();
    let stats = index.execute(q, None, &mut v);
    let mut rows = v.rows;
    rows.sort_unstable();
    (rows, stats)
}

/// A server learned on `queries` with a small search, admitting batches of
/// `batch` on `threads` workers.
fn server(table: &Table, queries: &[RangeQuery], batch: usize, threads: usize) -> FloodServer {
    let optimizer = flood_core::LayoutOptimizer::with_config(
        flood_core::CostModel::analytic_default(),
        flood_core::OptimizerConfig {
            data_sample: 128,
            query_sample: 4,
            gd_steps: 2,
            max_total_cells: 1 << 8,
            ..Default::default()
        },
    );
    let serve = ServeConfig {
        batch,
        threads,
        ..Default::default()
    };
    FloodServer::build(table, queries, optimizer, Default::default(), serve)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generator 1: deterministic interleavings. `schedule` mixes swap
    /// and query operations in arbitrary order; after every operation the
    /// snapshot's epoch, rows, and stats must match that epoch's layout
    /// exactly.
    #[test]
    fn interleaved_swaps_serve_old_or_new_never_a_mix(
        rows in arb_rows(64, 1..300),
        queries in proptest::collection::vec(query_strategy(), 1..8),
        schedule in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        let table = rows_table(&rows);
        // References for both layouts, per query.
        let refs: Vec<[(Vec<usize>, ScanStats); 2]> = {
            let even = build_epoch(&table, 0);
            let odd = build_epoch(&table, 1);
            queries
                .iter()
                .map(|q| [reference(&even, q), reference(&odd, q)])
                .collect()
        };
        let published = PublishedIndex::new(build_epoch(&table, 0));
        let mut expected_epoch = 0u64;
        let mut qi = 0usize;
        for &is_swap in &schedule {
            if is_swap {
                expected_epoch += 1;
                prop_assert_eq!(
                    published.publish(build_epoch(&table, expected_epoch)),
                    expected_epoch
                );
            } else {
                let snap = published.snapshot();
                prop_assert_eq!(snap.epoch(), expected_epoch);
                let q = &queries[qi % queries.len()];
                let (got_rows, got_stats) = reference(snap.index(), q);
                let (want_rows, want_stats) = &refs[qi % queries.len()][(snap.epoch() % 2) as usize];
                prop_assert_eq!(&got_rows, want_rows);
                prop_assert_eq!(got_stats, *want_stats, "stats bit-identical to the epoch's layout");
                qi += 1;
            }
        }
        prop_assert_eq!(published.swaps(), expected_epoch);
        // Nothing holds retired snapshots here, so every swapped-out epoch
        // must already be freed.
        prop_assert_eq!(published.retired_epochs() as u64, expected_epoch);
        prop_assert_eq!(published.live_retired(), 0);
    }

    /// Generator 2: real races. Reader threads stream queries while a
    /// swapper publishes; every result must be bit-identical to the
    /// serial run on the epoch it reports, and each reader's observed
    /// epochs must be monotone.
    #[test]
    fn concurrent_readers_see_whole_epochs(
        rows in arb_rows(64, 1..200),
        queries in proptest::collection::vec(query_strategy(), 1..6),
        swaps in 1u64..5,
    ) {
        let table = rows_table(&rows);
        let refs: Vec<[(Vec<usize>, ScanStats); 2]> = {
            let even = build_epoch(&table, 0);
            let odd = build_epoch(&table, 1);
            queries
                .iter()
                .map(|q| [reference(&even, q), reference(&odd, q)])
                .collect()
        };
        let published = PublishedIndex::new(build_epoch(&table, 0));
        let records: Vec<Vec<ReaderRecord>> = std::thread::scope(|scope| {
            let swapper = scope.spawn(|| {
                for e in 1..=swaps {
                    published.publish(build_epoch(&table, e));
                    std::thread::yield_now();
                }
            });
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let (published, queries) = (&published, &queries);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for pass in 0..3 {
                            for (qi, q) in queries.iter().enumerate() {
                                let snap = published.snapshot();
                                let (rows, stats) = reference(snap.index(), q);
                                out.push((snap.epoch(), qi, rows, stats));
                                if pass == 0 {
                                    std::thread::yield_now();
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            swapper.join().expect("swapper panicked");
            readers
                .into_iter()
                .map(|r| r.join().expect("reader panicked"))
                .collect()
        });
        for reader in &records {
            let mut last_epoch = 0u64;
            for (epoch, qi, rows, stats) in reader {
                prop_assert!(*epoch >= last_epoch, "epochs monotone per reader");
                last_epoch = *epoch;
                let (want_rows, want_stats) = &refs[*qi][(epoch % 2) as usize];
                prop_assert_eq!(rows, want_rows);
                prop_assert_eq!(stats, want_stats, "torn read: matches neither layout");
            }
        }
        prop_assert_eq!(published.epoch(), swaps);
        prop_assert_eq!(published.live_retired(), 0, "no snapshots outlive the scope");
        prop_assert_eq!(published.retired_epochs() as u64, swaps);
    }

    /// Generator 3: batched admission through [`FloodServer`] with swaps
    /// between batches. Per-query results and the aggregate [`ScanStats`]
    /// merge must equal the serial loop on each batch's snapshot, and no
    /// request may be dropped.
    #[test]
    fn batched_admission_under_swaps_matches_serial(
        rows in arb_rows(64, 1..300),
        queries in proptest::collection::vec(query_strategy(), 1..10),
        threads in 1usize..5,
        batch in 1usize..8,
        swap_before in proptest::collection::vec(any::<bool>(), 10),
    ) {
        let table = rows_table(&rows);
        let server = server(&table, &queries, batch, threads);
        let mut swaps_published = 0u64;
        let mut last_epoch = 0u64;
        let mut submitted = 0usize;
        for (ci, chunk) in queries.chunks(batch).enumerate() {
            if swap_before[ci % swap_before.len()] {
                swaps_published += 1;
                let snap = server.snapshot();
                prop_assert_eq!(
                    server.published().publish(build_epoch(snap.index().data(), swaps_published)),
                    swaps_published
                );
            }
            let snap = server.snapshot();
            let served = server.serve_batch::<SumVisitor>(chunk, Some(2));
            prop_assert_eq!(served.epoch, snap.epoch(), "one epoch per batch");
            prop_assert!(served.epoch >= last_epoch, "epochs monotone across batches");
            last_epoch = served.epoch;
            prop_assert_eq!(served.results.len(), chunk.len(), "zero dropped requests");
            let mut agg_serial = ScanStats::default();
            let mut agg_parallel = ScanStats::default();
            for (q, (v, s)) in chunk.iter().zip(&served.results) {
                let mut want = SumVisitor::default();
                let want_stats = snap.index().execute(q, Some(2), &mut want);
                prop_assert_eq!(v.sum, want.sum);
                prop_assert_eq!(v.count, want.count);
                prop_assert_eq!(*s, want_stats);
                agg_serial.merge(&want_stats);
                agg_parallel.merge(s);
            }
            prop_assert_eq!(agg_parallel, agg_serial, "aggregate stats merge exactly");
            submitted += chunk.len();
        }
        let d = server.diagnostics();
        prop_assert_eq!(d.submitted, submitted as u64);
        prop_assert_eq!(d.completed, submitted as u64);
        prop_assert_eq!(d.swaps, swaps_published);
    }

    /// Generator 4: metric conservation through the serving layer. The
    /// registry's counters are exactly the sums of what every caller saw — no query double-counted, none
    /// dropped — across arbitrary mixes of single and batched admission
    /// and thread counts, and the latency/batch histograms count one
    /// observation per request/batch.
    #[test]
    fn server_metrics_conserve_served_traffic(
        rows in arb_rows(64, 1..200),
        queries in proptest::collection::vec(query_strategy(), 1..10),
        threads in 1usize..5,
        batch in 1usize..8,
        singles in 1usize..12,
    ) {
        let table = rows_table(&rows);
        let server = server(&table, &queries, batch, threads);

        // Mixed traffic, accumulating exactly the per-result stats the
        // callers were handed.
        let mut scan_total = ScanStats::default();
        for i in 0..singles {
            let mut v = SumVisitor::default();
            let (s, _epoch) = server.execute(&queries[i % queries.len()], Some(2), &mut v);
            scan_total.merge(&s);
        }
        let mut batches = 0u64;
        let mut batched = 0u64;
        for chunk in queries.chunks(batch) {
            let served = server.serve_batch::<SumVisitor>(chunk, Some(2));
            for (_, s) in &served.results {
                scan_total.merge(s);
            }
            batches += 1;
            batched += chunk.len() as u64;
        }
        let total = singles as u64 + batched;

        let snap = server.metrics_snapshot().expect("metrics are always on");
        prop_assert_eq!(snap.counter("serve", "queries"), Some(total));
        prop_assert_eq!(snap.counter("serve", "completed"), Some(total));
        prop_assert_eq!(snap.counter("serve", "batches"), Some(batches));
        let qh = snap.histogram("serve", "query_ns").expect("query_ns recorded");
        prop_assert_eq!(qh.count, singles as u64, "one latency sample per single request");
        let bh = snap.histogram("serve", "batch_size").expect("batch_size recorded");
        prop_assert_eq!((bh.count, bh.sum), (batches, batched), "histogram sum is exact");
        // Scan counters ≡ the merge of every per-result ScanStats.
        for (name, want) in [
            ("points_scanned", scan_total.points_scanned),
            ("points_matched", scan_total.points_matched),
            ("points_in_exact_ranges", scan_total.points_in_exact_ranges),
            ("cells_visited", scan_total.cells_visited),
            ("cells_projected", scan_total.cells_projected),
            ("refinements", scan_total.refinements),
            ("ranges_scanned", scan_total.ranges_scanned),
        ] {
            prop_assert_eq!(snap.counter("scan", name), Some(want), "scan.{}", name);
        }
        // Every batched query went through the pool exactly once; singles
        // never touch it.
        prop_assert_eq!(snap.counter("pool", "tasks"), Some(batched));
        prop_assert_eq!(
            snap.gauge("epoch", "current"),
            Some(server.snapshot().epoch() as i64)
        );
        let d = server.diagnostics();
        prop_assert_eq!(d.submitted, total);
        prop_assert_eq!(d.completed, total);
    }
}
