//! Soak: open-loop drift traffic against a [`FloodServer`] with
//! adaptation running alongside, driven long enough for every moving part
//! to cycle.
//!
//! Two drivers:
//!
//! * a *scheduled* run — the drift phases are served in order and a swap
//!   is forced at every phase boundary, so the end-state diagnostics
//!   (swaps, epochs, retired epochs, request counts) are known exactly;
//! * a *racing* run — reader threads stream drift batches while a
//!   maintenance thread polls [`FloodServer::maybe_adapt`], for a
//!   wall-clock budget (default ~1.5 s; set `FLOOD_SOAK_MS` to soak
//!   longer). Nondeterministic by design: the assertions are the
//!   invariants (no panic, zero dropped requests, monotone epochs,
//!   swap/retirement accounting), not a schedule.

use flood_core::{CostModel, FloodConfig, LayoutOptimizer, OptimizerConfig};
use flood_data::workloads::drift::{DriftConfig, DriftingWorkload};
use flood_serve::{AdaptiveConfig, FloodServer, ServeConfig};
use flood_store::{CountVisitor, RangeQuery, Table};
use flood_testkit::count;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn table() -> Table {
    let n = 6_000u64;
    Table::from_columns(vec![
        (0..n).map(|i| (i * 7919) % 10_000).collect(),
        (0..n).map(|i| (i * 104729) % 10_000).collect(),
        (0..n).map(|i| (i * 613) % 10_000).collect(),
    ])
}

fn optimizer() -> LayoutOptimizer {
    LayoutOptimizer::with_config(
        CostModel::analytic_default(),
        OptimizerConfig {
            data_sample: 600,
            query_sample: 10,
            gd_steps: 6,
            max_total_cells: 1 << 10,
            ..Default::default()
        },
    )
}

fn drift(table: &Table, phases: usize, queries_per_phase: usize) -> DriftingWorkload {
    DriftingWorkload::generate(
        table,
        &DriftConfig {
            phases,
            queries_per_phase,
            filters_per_query: 2,
            target_selectivity: 0.005,
            seed: 42,
        },
    )
}

/// The scheduled soak: serve each drift phase open-loop, force a re-learn
/// at every phase boundary, and check the diagnostics against the known
/// schedule at the end.
#[test]
fn scheduled_swaps_match_known_diagnostics() {
    let t = table();
    let d = drift(&t, 3, 48);
    let server = FloodServer::build(
        &t,
        &d.train,
        optimizer(),
        FloodConfig::default(),
        ServeConfig {
            adaptive: AdaptiveConfig {
                window: 32,
                check_every: 1_000_000, // background checks off: the schedule is ours
                ..Default::default()
            },
            batch: 16,
            threads: 2,
        },
    );

    let mut epochs_seen = Vec::new();
    let mut total = 0usize;
    for (k, phase) in d.phases.iter().enumerate() {
        for served in server.serve_stream::<CountVisitor>(&phase.queries, None) {
            epochs_seen.push(served.epoch);
            // Spot-check correctness against brute force on every batch.
            for (q, (v, _)) in phase.queries[total % phase.queries.len()..]
                .iter()
                .zip(&served.results)
            {
                assert_eq!(v.count, count(&t, q));
            }
            total += served.results.len();
        }
        // Phase boundary: force a deterministic swap onto the next
        // phase's distribution.
        let next = &d.phases[(k + 1) % d.phases.len()];
        let epoch = server.force_relearn(&next.queries);
        assert_eq!(epoch, (k + 1) as u64, "one swap per phase boundary");
    }

    assert_eq!(total, 3 * 48, "every request served");
    // Every batch within a phase ran on that phase's epoch.
    let mut last = 0;
    for &e in &epochs_seen {
        assert!(e >= last, "epoch counter is monotone: {epochs_seen:?}");
        last = e;
    }
    let diag = server.diagnostics();
    assert_eq!(diag.epoch, 3);
    assert_eq!(diag.swaps, 3);
    assert_eq!(diag.submitted, total as u64);
    assert_eq!(diag.completed, total as u64, "zero dropped requests");
    assert_eq!(diag.adaptive.relearns, 3, "exactly the forced schedule");
    // No snapshots are held here, so every swapped-out epoch is freed.
    assert_eq!(diag.retired_epochs, 3);
    assert_eq!(diag.live_retired, 0);
}

/// The racing soak: open-loop readers + background adaptation for a
/// wall-clock budget. Asserts the invariants that must hold under any
/// interleaving.
#[test]
fn open_loop_soak_with_background_adaptation() {
    let budget = Duration::from_millis(match std::env::var("FLOOD_SOAK_MS") {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("FLOOD_SOAK_MS must be a millisecond count, got {v:?}")),
        Err(_) => 1_500,
    });
    let t = table();
    let d = drift(&t, 4, 40);
    let server = FloodServer::build(
        &t,
        &d.train,
        optimizer(),
        FloodConfig::default(),
        ServeConfig {
            adaptive: AdaptiveConfig {
                window: 48,
                check_every: 24,
                degradation_factor: 1.2,
            },
            batch: 16,
            threads: 1, // readers are the threads here; batches stay inline
        },
    );
    // Pin the initial epoch for the whole run: retirement accounting must
    // see it as live for as long as we hold it.
    let pinned = server.snapshot();
    let stream: Vec<RangeQuery> = d.stream().cloned().collect();
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + budget;

    let (reader_counts, adapt_turns) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let (server, stream, stop, t) = (&server, &stream, &stop, &t);
                scope.spawn(move || {
                    let mut served = 0usize;
                    let mut last_epoch = 0u64;
                    let mut offset = r * 7; // desync the two readers
                    while !stop.load(Ordering::Relaxed) {
                        let start = offset % stream.len();
                        let end = (start + 16).min(stream.len());
                        let batch = server.serve_batch::<CountVisitor>(&stream[start..end], None);
                        assert!(batch.epoch >= last_epoch, "monotone epochs per reader");
                        last_epoch = batch.epoch;
                        // Correctness under races, spot-checked on the
                        // first query of each batch.
                        let (v, _) = &batch.results[0];
                        assert_eq!(v.count, count(t, &stream[start]));
                        served += batch.results.len();
                        offset = end % stream.len().max(1) + usize::from(end == stream.len());
                    }
                    served
                })
            })
            .collect();
        let adapter = scope.spawn(|| {
            let mut turns = 0usize;
            while !stop.load(Ordering::Relaxed) {
                server.maybe_adapt();
                turns += 1;
                std::thread::yield_now();
            }
            turns
        });
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        let counts: Vec<usize> = readers
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect();
        (counts, adapter.join().expect("adapter panicked"))
    });

    let total: usize = reader_counts.iter().sum();
    assert!(total > 0, "the soak must actually serve traffic");
    assert!(adapt_turns > 0, "the maintenance thread must get turns");
    let diag = server.diagnostics();
    assert_eq!(diag.submitted, total as u64);
    assert_eq!(diag.completed, total as u64, "zero dropped requests");
    assert_eq!(diag.epoch, diag.swaps, "epoch counts published swaps");
    assert_eq!(
        diag.retired_epochs + diag.live_retired,
        diag.swaps as usize,
        "every swap retired exactly one epoch"
    );
    if diag.swaps > 0 {
        assert!(
            diag.live_retired >= 1,
            "the pinned epoch-0 snapshot keeps its layout alive: {diag:?}"
        );
    }
    drop(pinned);
    let after = server.diagnostics();
    assert_eq!(
        after.live_retired, 0,
        "dropping the last reader frees every retired epoch"
    );
    assert_eq!(after.retired_epochs, after.swaps as usize);
}
