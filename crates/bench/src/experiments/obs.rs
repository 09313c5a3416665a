//! Observability overhead: what does `flood-obs` instrumentation cost on
//! the query path?
//!
//! Two [`FloodServer`]s are built from the same table, workload, and seed
//! — byte-identical layouts — differing only in `ServeConfig::metrics`.
//! The same closed-loop traffic is then driven against both in
//! **interleaved trials** (off/on, on/off, …) so slow machine-state drift
//! (frequency scaling, page cache, a noisy neighbour on a 1-vCPU runner)
//! lands on both sides equally. Each trial reports an exact
//! sort-and-index p50 — deliberately *not* the `flood-obs` histogram, so
//! the instrument under test is not also the measuring device — and the
//! headline number is the **median** per-trial ratio, robust to a single
//! preempted trial.
//!
//! The budget the design doc commits to (ARCHITECTURE.md, Observability):
//! metrics on = two clock reads plus a handful of relaxed atomic RMWs per
//! query, ≤5% p50 penalty on release builds. At the scale BASELINES.md
//! records (`--scale` ≥ 1) [`run`] asserts it, so `repro obs` exits
//! non-zero over budget.

use crate::harness::Harness;
use flood_core::FloodConfig;
use flood_data::DatasetKind;
use flood_serve::{FloodServer, ServeConfig};
use flood_store::{CountVisitor, RangeQuery};

/// The documented budget (ARCHITECTURE.md, Observability): metrics on may
/// cost at most this much p50, in percent.
const P50_BUDGET_PCT: f64 = 5.0;

/// What one obs run measured (returned for the smoke test's asserts).
pub struct ObsSummary {
    /// Median per-trial exact p50, metrics on, nanoseconds.
    pub p50_on_ns: u64,
    /// Median per-trial exact p50, metrics off, nanoseconds.
    pub p50_off_ns: u64,
    /// Median per-trial (on/off − 1) × 100 — the gated number.
    pub overhead_pct: f64,
    /// Interleaved trials run.
    pub trials: usize,
    /// Queries the instrumented server's own counter saw (cross-checked
    /// against the samples we drove).
    pub queries_counted: u64,
}

/// Drive `samples` closed-loop requests (cycling `queries`) and return the
/// per-request latencies.
fn drive(h: &Harness, server: &FloodServer, queries: &[RangeQuery], samples: usize) -> Vec<u64> {
    h.latencies(samples, |i| {
        let q = &queries[i % queries.len()];
        server.execute(q, None, &mut CountVisitor::default());
    })
}

/// Exact (sorted, nearest-rank) median — the control-side estimator, kept
/// independent of the histogram under test.
fn median<T: PartialOrd + Copy>(mut xs: Vec<T>) -> T {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[(xs.len() - 1) / 2]
}

/// Run the overhead measurement; the returned summary carries every number
/// the report emits.
pub fn run_obs(h: &Harness) -> ObsSummary {
    let cfg = &h.cfg;
    let (ds, w) = h.dataset(DatasetKind::Sales);
    let n = ds.table.len();
    // Only `execute` is driven, never `maybe_adapt`, so no layout swap can
    // land in a trial whatever the adaptation settings.
    let serve_cfg = |metrics: bool| ServeConfig {
        metrics,
        ..Default::default()
    };
    let build = |metrics: bool| {
        FloodServer::build(
            &ds.table,
            &w.train,
            h.optimizer(cfg.optimizer(n)),
            FloodConfig::default(),
            serve_cfg(metrics),
        )
    };
    let (off, _) = h.phases.time("layout-opt", || build(false));
    let (on, _) = h.phases.time("layout-opt", || build(true));

    // Odd trial count so the median is a real trial; 9 tolerates four
    // preempted/noisy trials on a 1-vCPU runner.
    let trials = 9usize;
    let per_trial = (cfg.queries * 20).clamp(200, 2_000);
    // Warm both paths (page cache, branch predictors, lazy allocations)
    // before anything is recorded.
    drive(h, &off, &w.test, per_trial.min(200));
    drive(h, &on, &w.test, per_trial.min(200));

    let mut p50_off = Vec::with_capacity(trials);
    let mut p50_on = Vec::with_capacity(trials);
    let mut ratios = Vec::with_capacity(trials);
    for t in 0..trials {
        // Alternate which server goes first so any monotone machine drift
        // cancels across trials instead of biasing one side.
        let (a, b) = if t % 2 == 0 { (&off, &on) } else { (&on, &off) };
        let ns_a = median(drive(h, a, &w.test, per_trial));
        let ns_b = median(drive(h, b, &w.test, per_trial));
        let (o, i) = if t % 2 == 0 {
            (ns_a, ns_b)
        } else {
            (ns_b, ns_a)
        };
        p50_off.push(o);
        p50_on.push(i);
        ratios.push(i as f64 / o.max(1) as f64);
    }

    let overhead_pct = (median(ratios) - 1.0) * 100.0;
    let snap = on
        .metrics_snapshot()
        .expect("instrumented server has metrics");
    let queries_counted = snap.counter("serve", "queries").expect("queries counter");
    assert!(
        off.metrics_snapshot().is_none(),
        "the control server must carry zero telemetry"
    );
    // Expose the instrumented server's counters through `repro --metrics`.
    if let Some(m) = on.metrics() {
        flood_obs::metrics::global().absorb(m.registry());
    }
    ObsSummary {
        p50_on_ns: median(p50_on),
        p50_off_ns: median(p50_off),
        overhead_pct,
        trials,
        queries_counted,
    }
}

/// Run the experiment at the configured scale.
pub fn run(h: &Harness) {
    println!("\n=== observability overhead (flood-obs on the query path) ===");
    let s = run_obs(h);
    println!(
        "{:<14} {:>12} {:>12} {:>10}",
        "trials", "p50 off(ns)", "p50 on(ns)", "penalty"
    );
    println!(
        "{:<14} {:>12} {:>12} {:>9.2}%",
        s.trials, s.p50_off_ns, s.p50_on_ns, s.overhead_pct,
    );
    println!(
        "median of {} interleaved trials; instrumented server counted {} queries. \
         budget: ≤{P50_BUDGET_PCT}% p50 on release builds.",
        s.trials, s.queries_counted,
    );
    if h.cfg.scale >= 1.0 {
        assert!(
            s.overhead_pct <= P50_BUDGET_PCT,
            "query-path p50 penalty {:.2}% exceeds the {P50_BUDGET_PCT}% budget",
            s.overhead_pct
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The overhead harness end to end at tiny scale: both servers serve,
    /// the instrumented one counts every driven request, and the headline
    /// ratio is a finite number. The ≤5% budget itself is only meaningful
    /// on release builds — `run` asserts it at default scale — so here the
    /// bound is a loose debug-mode sanity ceiling.
    #[test]
    fn overhead_harness_measures_and_counts() {
        let cfg = crate::experiments::ExpConfig {
            scale: 0.05,
            queries: 8,
            ..Default::default()
        };
        let s = run_obs(&Harness::pinned(cfg));
        assert_eq!(s.trials, 9);
        assert!(s.p50_on_ns > 0 && s.p50_off_ns > 0);
        assert!(s.overhead_pct.is_finite());
        assert!(
            s.overhead_pct < 100.0,
            "metrics on the hot path must stay a few atomics, not a lock: {:.1}%",
            s.overhead_pct
        );
        // warm-up (200) + 9 trials × per-trial samples all hit the counter.
        let per_trial = (cfg.queries * 20).clamp(200, 2_000) as u64;
        assert_eq!(s.queries_counted, 200 + 9 * per_trial);
    }
}
