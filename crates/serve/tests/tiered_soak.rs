//! Soak: open-loop traffic against a [`TieredServer`] while a maintenance
//! thread inserts + compacts new generations and an eviction thread
//! churns the cold tier underneath.
//!
//! The assertions are the invariants that must hold under any
//! interleaving:
//!
//! * zero dropped or duplicated queries — every admitted query completes,
//!   and every answer equals the exact expected count *for the epoch it
//!   was served from* (sealed-reads visibility: a generation's row count
//!   is fixed at publish time, so a torn read shows up as an off-by-N);
//! * monotone epochs per reader;
//! * no reader ever degrades: eviction churn only costs re-faults, never
//!   correctness or a typed error (the backend itself is healthy);
//! * a snapshot pinned on epoch 0 before any compaction still answers
//!   epoch 0's exact count at the very end — retired generations keep
//!   their segments loadable, and never fault on a *later* epoch's data.
//!
//! Wall-clock budget defaults to ~600 ms; set `FLOOD_SOAK_MS` to soak
//! longer.

use flood_serve::TieredServer;
use flood_store::{CountVisitor, MemBackend, RangeQuery, SumVisitor, TierConfig};
use flood_testkit::{id_table, oracle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BASE_ROWS: u64 = 2_048;

#[test]
fn tiered_soak_under_compaction_and_eviction_churn() {
    let budget = Duration::from_millis(match std::env::var("FLOOD_SOAK_MS") {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("FLOOD_SOAK_MS must be a millisecond count, got {v:?}")),
        Err(_) => 600,
    });
    let base = id_table(BASE_ROWS);
    let server = TieredServer::seal(
        &base,
        Arc::new(MemBackend::new()),
        TierConfig {
            budget_bytes: 16 << 10, // a few segments resident, most cold
            segment_blocks: 2,
        },
    )
    .unwrap();
    let cache = server.cache();

    // Exact expected row count per published epoch. The maintenance
    // thread records the next epoch's count *before* publishing it, so
    // any epoch a reader can observe already has its entry.
    let expected: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::from([(0, BASE_ROWS)]));
    // Fixed probe: rows with id in 1..=700 exist in every epoch (the base
    // has 2 048), so its COUNT and SUM are epoch-independent — and the
    // probing bounds force cold faults instead of metadata-only answers.
    let probe = RangeQuery::all(2).with_range(0, 1, 700);
    let probe_sum = oracle(&base, &probe, Some(1), None).sum.sum;

    // Pin epoch 0 before any compaction retires it.
    let pinned = server.snapshot();
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + budget;

    let (reader_counts, compactions) = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (server, expected, probe, stop) = (&server, &expected, &probe, &stop);
                scope.spawn(move || {
                    let mut served = 0usize;
                    let mut last_epoch = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Epoch-dependent check: full COUNT == the exact
                        // count recorded for the epoch we were served from.
                        let mut v = CountVisitor::default();
                        let (_, epoch) = server
                            .execute(&RangeQuery::all(2), None, &mut v)
                            .expect("healthy backend: churn must never degrade");
                        assert!(epoch >= last_epoch, "monotone epochs per reader");
                        last_epoch = epoch;
                        let want = *expected
                            .lock()
                            .unwrap()
                            .get(&epoch)
                            .expect("every observable epoch has a recorded count");
                        assert_eq!(v.count, want, "torn read at epoch {epoch}");

                        // Cold-faulting check: probe bounds cut through
                        // blocks, so this reads segments, not metadata.
                        let mut s = SumVisitor::default();
                        let (_, e2) = server.execute(probe, Some(1), &mut s).unwrap();
                        assert!(e2 >= last_epoch);
                        last_epoch = e2;
                        assert_eq!((s.count, s.sum), (700, probe_sum));
                        served += 2;
                    }
                    served
                })
            })
            .collect();

        let maintenance = scope.spawn(|| {
            let mut total = BASE_ROWS;
            let mut compactions = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..32 {
                    server.insert(&[total, (total * 31) % 997]).unwrap();
                    total += 1;
                }
                // Record the next epoch's exact count BEFORE publishing:
                // a reader must never see an epoch we can't predict.
                expected.lock().unwrap().insert(server.epoch() + 1, total);
                server.compact().expect("healthy backend compaction");
                compactions += 1;
                std::thread::yield_now();
            }
            compactions
        });

        let evictor = scope.spawn(|| {
            let mut flips = 0u64;
            while !stop.load(Ordering::Relaxed) {
                cache.evict_all();
                // Alternate between "nothing stays resident" and a small
                // budget, so readers hit every residency regime.
                cache.set_budget(if flips % 2 == 0 { 0 } else { 16 << 10 });
                flips += 1;
                std::thread::yield_now();
            }
            cache.set_budget(16 << 10);
        });

        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        let counts: Vec<usize> = readers
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect();
        evictor.join().expect("evictor panicked");
        (counts, maintenance.join().expect("maintenance panicked"))
    });

    let total: usize = reader_counts.iter().sum();
    assert!(total > 0, "the soak must actually serve traffic");
    assert!(
        compactions > 0,
        "the soak must actually publish generations"
    );
    assert!(
        cache.faults() > 0,
        "the cold tier must actually be exercised"
    );
    assert!(
        cache.evictions() > 0,
        "the eviction thread must actually churn"
    );

    let diag = server.diagnostics();
    assert_eq!(diag.submitted, total as u64);
    assert_eq!(diag.completed, total as u64, "zero dropped queries");
    assert_eq!(diag.degraded, 0, "healthy backend: nothing degrades");
    assert_eq!(diag.retried, 0, "eviction is not a fault");
    assert_eq!(diag.swaps, compactions);
    assert_eq!(diag.epoch, compactions, "epoch counts published swaps");
    assert_eq!(
        diag.retired_epochs + diag.live_retired,
        compactions as usize,
        "every compaction retired exactly one generation"
    );
    assert!(
        diag.live_retired >= 1,
        "the pinned epoch-0 snapshot keeps its generation alive: {diag:?}"
    );

    // The pinned snapshot answers epoch 0's exact counts at the very end,
    // with the cache fully churned and its generation long retired.
    cache.evict_all();
    let mut v = CountVisitor::default();
    let stats = pinned
        .value()
        .try_execute(&RangeQuery::all(2), None, &mut v)
        .expect("a retired generation's segments stay loadable");
    assert_eq!(pinned.epoch(), 0);
    assert_eq!(v.count, BASE_ROWS, "retired epoch serves its own rows only");
    assert_eq!(stats.points_matched, BASE_ROWS);
    let mut s = SumVisitor::default();
    pinned.value().try_execute(&probe, Some(1), &mut s).unwrap();
    assert_eq!((s.count, s.sum), (700, probe_sum));

    drop(pinned);
    let after = server.diagnostics();
    assert_eq!(
        after.live_retired, 0,
        "dropping the last reader frees every retired generation"
    );
    assert_eq!(after.retired_epochs, compactions as usize);
}
