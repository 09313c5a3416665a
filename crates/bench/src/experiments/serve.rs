//! Serving under live adaptation: latency percentiles in steady state and
//! *across* a layout swap (`flood-serve`; §8's concurrency + shifting
//! workloads, composed).
//!
//! A seed-deterministic load generator (the drift workload) drives a
//! [`FloodServer`] three ways:
//!
//! 1. **steady state** — closed-loop per-request traffic on the trained
//!    phase, measured per request;
//! 2. **across a swap** — the workload shifts to the next drift phase and
//!    a background thread re-learns + rebuilds + publishes while the
//!    foreground keeps serving closed-loop; every request that lands
//!    inside the swap window is measured. The claim under test is that
//!    the epoch-swap design keeps the serving path free of
//!    synchronization stalls — readers never wait on the publisher. Two
//!    effects that are *not* the swap protocol's doing must be
//!    controlled for. First, the workload: during the window the server
//!    answers shifted queries on the not-yet-replaced layout, so the
//!    **stale** row (same queries, same old layout, idle) is the real
//!    "before" — comparing against tuned steady state would charge the
//!    swap for the drift degradation it exists to fix. Second, the CPU:
//!    with fewer cores than threads the re-learn steals timeslices and a
//!    preempted query measures the scheduling quantum, so the
//!    **contended** control replays the same queries against a pinned
//!    pre-swap snapshot while a dummy thread applies re-learn-shaped
//!    pressure (memory streaming + allocation churn) — equal contention,
//!    none of the swap machinery. The headline ratio is during-swap p99
//!    over contended p99: anything well above 1 would be a stall the
//!    swap protocol itself introduced;
//! 3. **open loop** — the full drift stream through batched admission
//!    ([`FloodServer::serve_stream`]) with the adaptation turn polled
//!    between batches, reporting throughput and the swaps the background
//!    loop published on its own.
//!
//! Wall-clock percentiles are inherently run-to-run noisy; the reported
//! shape (swap ≈ contended, not ≫) is the regression signal BASELINES.md
//! records.

use super::ExpConfig;
use crate::harness::{calibrated_cost_model, exec_threads};
use crate::phases::time_phase;
use flood_core::{AdaptiveConfig, FloodConfig, LayoutOptimizer};
use flood_data::workloads::drift::{DriftConfig, DriftMode, DriftingWorkload};
use flood_data::DatasetKind;
use flood_serve::{FloodServer, ServeConfig};
use flood_store::{CountVisitor, RangeQuery};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Latency percentiles over one measured window, nanoseconds.
#[derive(Debug, Clone, Copy)]
struct Percentiles {
    p50: u64,
    p99: u64,
    p999: u64,
    samples: usize,
}

impl Percentiles {
    /// Derive percentiles through the shared `flood-obs` histogram — the
    /// same estimator the server reports at runtime, so bench tables and
    /// `metrics_snapshot()` can never disagree on methodology. (Accuracy
    /// vs an exact sort is pinned in `harness::tests`.)
    fn from_ns(ns: Vec<u64>) -> Self {
        assert!(!ns.is_empty(), "percentiles need at least one sample");
        let s = crate::harness::percentiles_from_ns(&ns);
        Percentiles {
            p50: s.p50,
            p99: s.p99,
            p999: s.p999,
            samples: s.count as usize,
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// What one serve run measured (returned for the smoke test's asserts).
pub struct ServeSummary {
    steady: Percentiles,
    steady_qps: f64,
    /// Shifted queries on the stale layout, idle — the workload control.
    stale: Percentiles,
    /// Shifted queries on the (pinned) stale layout under a dummy burner —
    /// the contention control.
    contended: Percentiles,
    swap: Percentiles,
    swap_wall: Duration,
    /// during-swap p99 / contended p99 — the headline ratio (≈1 means the
    /// swap protocol adds no stalls beyond CPU sharing).
    pub p99_ratio: f64,
    /// during-swap p99 / stale-idle p99 — contention included.
    pub p99_ratio_idle: f64,
    pub openloop_qps: f64,
    /// Swaps published across the whole run (1 forced + background).
    pub swaps: u64,
    pub submitted: u64,
    pub completed: u64,
    /// The server's full telemetry at end of run.
    pub metrics: Option<flood_obs::MetricsSnapshot>,
}

/// Closed-loop measurement: serve `queries` cycled until `min_samples`
/// requests have been timed (or `until` reports done, whichever is later).
fn closed_loop(
    server: &FloodServer,
    queries: &[RangeQuery],
    min_samples: usize,
    until: Option<&AtomicBool>,
) -> (Vec<u64>, Duration) {
    let mut ns = Vec::with_capacity(min_samples);
    let t0 = Instant::now();
    'outer: loop {
        for q in queries {
            let mut v = CountVisitor::default();
            let t = Instant::now();
            server.execute(q, None, &mut v);
            ns.push(t.elapsed().as_nanos() as u64);
            let done_waiting = until.map(|f| f.load(Ordering::Acquire)).unwrap_or(true);
            if ns.len() >= min_samples && done_waiting {
                break 'outer;
            }
        }
    }
    (ns, t0.elapsed())
}

/// The contention control: replay `queries` against a pinned pre-swap
/// snapshot (same stale layout the during-swap window served from) while
/// a background thread does re-learn-*shaped* work — streaming over a
/// table-sized buffer and churning short-lived allocations, so CPU time,
/// cache eviction, and allocator pressure all match a real search, with
/// none of the swap machinery. Collects `samples` latencies (matching the
/// during-swap window's count) and then stops the burner.
fn contended_loop(
    index: &flood_core::FloodIndex,
    queries: &[RangeQuery],
    rows: usize,
    samples: usize,
) -> Vec<u64> {
    use flood_store::MultiDimIndex;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (done_ref,) = (&done,);
        scope.spawn(move || {
            // Same order of memory as the flattened data sample the
            // optimizer streams over.
            let mut resident: Vec<u64> = (0..rows as u64 * 3).collect();
            let mut acc = 0u64;
            while !done_ref.load(Ordering::Acquire) {
                for v in &mut resident {
                    *v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                    acc ^= *v;
                }
                // The search's per-candidate scratch: short-lived vectors.
                let scratch: Vec<u64> = (0..4096).map(|i| acc.wrapping_add(i)).collect();
                acc ^= scratch[scratch.len() / 2];
                std::hint::black_box(acc);
            }
        });
        let mut ns = Vec::with_capacity(samples);
        'outer: loop {
            for q in queries {
                let mut v = CountVisitor::default();
                let t = Instant::now();
                index.execute(q, None, &mut v);
                ns.push(t.elapsed().as_nanos() as u64);
                if ns.len() >= samples {
                    break 'outer;
                }
            }
        }
        done.store(true, Ordering::Release);
        ns
    })
}

/// Run the serving experiment; the returned summary carries every number
/// the report emits.
pub fn run_serve(cfg: &ExpConfig) -> ServeSummary {
    let n = cfg.rows(DatasetKind::Sales);
    let (table, _) = time_phase("data-gen", || {
        (DatasetKind::Sales.generate(n, cfg.seed).table, ())
    });
    let qpp = (cfg.queries * 2).max(24);
    let drift = time_phase("data-gen", || {
        DriftingWorkload::generate(
            &table,
            &DriftConfig {
                phases: 3,
                queries_per_phase: qpp,
                filters_per_query: 2,
                target_selectivity: cfg.target_selectivity(),
                mode: DriftMode::Abrupt,
                seed: cfg.seed,
            },
        )
    });
    // --threads N wins; otherwise size from the environment
    // (FLOOD_THREADS, as the CI smoke sets).
    let threads = match exec_threads() {
        1 => 0,
        n => n,
    };
    let server = time_phase("layout-opt", || {
        FloodServer::build(
            &table,
            &drift.train,
            LayoutOptimizer::with_config(calibrated_cost_model().clone(), cfg.optimizer(n)),
            FloodConfig::default(),
            ServeConfig {
                adaptive: AdaptiveConfig {
                    window: (qpp / 3).clamp(12, 120),
                    check_every: (qpp / 6).clamp(6, 60),
                    degradation_factor: 1.25,
                },
                batch: 32,
                threads,
                metrics: true,
            },
        )
    });

    // 1. Steady state: closed-loop on the trained phase.
    let min_samples = (cfg.queries * 40).clamp(400, 4_000);
    let (steady_ns, steady_wall) =
        closed_loop(&server, &drift.phases[0].queries, min_samples, None);
    crate::phases::record_phase("query-exec", steady_wall);
    let steady = Percentiles::from_ns(steady_ns);
    let steady_qps = steady.samples as f64 / steady_wall.as_secs_f64();

    // 2a. Workload control: the shifted (phase-1) queries on the stale
    // phase-0 layout, idle. This is what serving looks like right before
    // the swap — the fair "before" for the during-swap rows.
    let shifted = &drift.phases[1].queries;
    let stale_samples = (min_samples / 4).max(200);
    let (stale_ns, stale_wall) = closed_loop(&server, shifted, stale_samples, None);
    crate::phases::record_phase("query-exec", stale_wall);
    let stale = Percentiles::from_ns(stale_ns);

    // 2b. Across the swap: a background thread re-learns, rebuilds, and
    // publishes while the foreground keeps serving phase-1 traffic. Only
    // requests inside the swap window are kept. The epoch-0 snapshot is
    // pinned first so the contention control below can replay against the
    // exact layout this window served from.
    let pinned = server.snapshot();
    let swap_done = AtomicBool::new(false);
    let (swap_ns_all, swap_wall) = std::thread::scope(|scope| {
        let (server, swap_done) = (&server, &swap_done);
        let publisher = scope.spawn(move || {
            let t0 = Instant::now();
            server.force_relearn(shifted);
            swap_done.store(true, Ordering::Release);
            t0.elapsed()
        });
        let (ns, _) = closed_loop(server, shifted, 1, Some(swap_done));
        let wall = publisher.join().expect("publisher panicked");
        (ns, wall)
    });
    crate::phases::record_phase("layout-opt", swap_wall);
    let swap = Percentiles::from_ns(swap_ns_all);

    // 2c. Contention control: same queries, same (pinned) stale layout,
    // same sample count, equal CPU pressure — no swap machinery. The fair
    // denominator for the swap percentiles.
    let t0 = Instant::now();
    let contended_ns = contended_loop(pinned.index(), shifted, n, swap.samples);
    crate::phases::record_phase("query-exec", t0.elapsed());
    drop(pinned);
    let contended = Percentiles::from_ns(contended_ns);
    let p99_ratio = ms(swap.p99) / ms(contended.p99).max(1e-12);
    let p99_ratio_idle = ms(swap.p99) / ms(stale.p99).max(1e-12);

    // 3. Open loop: the whole drift stream through batched admission,
    // adaptation polled between batches.
    let stream: Vec<RangeQuery> = drift.stream().cloned().collect();
    let t0 = Instant::now();
    let mut open_served = 0usize;
    for chunk in stream.chunks(32) {
        open_served += server
            .serve_batch::<CountVisitor>(chunk, None)
            .results
            .len();
        server.maybe_adapt();
    }
    let open_wall = t0.elapsed();
    crate::phases::record_phase("query-exec", open_wall);
    let openloop_qps = open_served as f64 / open_wall.as_secs_f64();

    let diag = server.diagnostics();
    // Snapshot the server's telemetry and fold it into the process-global
    // registry so `repro --metrics` exposes the serve counters too.
    let metrics = server.metrics_snapshot();
    if let Some(m) = server.metrics() {
        flood_obs::metrics::global().absorb(m.registry());
    }
    ServeSummary {
        steady,
        steady_qps,
        stale,
        contended,
        swap,
        swap_wall,
        p99_ratio,
        p99_ratio_idle,
        openloop_qps,
        swaps: diag.swaps,
        submitted: diag.submitted,
        completed: diag.completed,
        metrics,
    }
}

/// Run the experiment at the configured scale.
pub fn run(cfg: &ExpConfig) {
    println!("\n=== serving under live adaptation (flood-serve) ===");
    let s = run_serve(cfg);
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "window", "p50(ms)", "p99(ms)", "p999(ms)", "samples", "q/s"
    );
    println!(
        "{:<16} {:>10.4} {:>10.4} {:>10.4} {:>10} {:>12.0}",
        "steady",
        ms(s.steady.p50),
        ms(s.steady.p99),
        ms(s.steady.p999),
        s.steady.samples,
        s.steady_qps,
    );
    println!(
        "{:<16} {:>10.4} {:>10.4} {:>10.4} {:>10} {:>12}",
        "stale (shifted)",
        ms(s.stale.p50),
        ms(s.stale.p99),
        ms(s.stale.p999),
        s.stale.samples,
        "-",
    );
    println!(
        "{:<16} {:>10.4} {:>10.4} {:>10.4} {:>10} {:>12}",
        "contended",
        ms(s.contended.p50),
        ms(s.contended.p99),
        ms(s.contended.p999),
        s.contended.samples,
        "-",
    );
    println!(
        "{:<16} {:>10.4} {:>10.4} {:>10.4} {:>10} {:>12}",
        "during-swap",
        ms(s.swap.p50),
        ms(s.swap.p99),
        ms(s.swap.p999),
        s.swap.samples,
        "-",
    );
    println!(
        "\nswap window: {:.1} ms (re-learn + rebuild + publish, off the serving path)",
        s.swap_wall.as_secs_f64() * 1e3,
    );
    println!(
        "during-swap p99 = {:.2}x contended p99 (equal CPU pressure — the swap protocol's \
         own cost) and {:.2}x stale-idle p99 (contention included)",
        s.p99_ratio, s.p99_ratio_idle,
    );
    println!(
        "open loop: {:.0} q/s over the full drift stream ({} swaps published, \
         {}/{} requests completed)",
        s.openloop_qps, s.swaps, s.completed, s.submitted,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serving loop end to end at tiny scale: requests are measured in
    /// both windows, the forced swap publishes, and nothing is dropped.
    #[test]
    fn serve_measures_both_windows_and_drops_nothing() {
        let cfg = ExpConfig {
            scale: 0.05,
            queries: 8,
            ..Default::default()
        };
        let s = run_serve(&cfg);
        assert!(s.steady.samples >= 400);
        assert!(s.swap.samples >= 1, "the swap window must be observed");
        assert!(
            s.contended.samples >= 1,
            "the contention control must be observed"
        );
        assert_eq!(
            s.contended.samples, s.swap.samples,
            "the control replays the swap window's sample count"
        );
        assert!(s.stale.samples >= 200);
        assert!(s.steady.p50 > 0 && s.swap.p50 > 0 && s.contended.p50 > 0 && s.stale.p50 > 0);
        assert!(s.p99_ratio > 0.0 && s.p99_ratio_idle > 0.0);
        assert!(s.swaps >= 1, "the forced swap must publish");
        assert_eq!(s.submitted, s.completed, "zero dropped requests");
        // The embedded telemetry agrees with the server's own diagnostics.
        let snap = s.metrics.as_ref().expect("serve runs with metrics on");
        assert_eq!(snap.counter("serve", "queries"), Some(s.submitted));
        assert_eq!(snap.counter("adapt", "swaps"), Some(s.swaps));
    }
}
