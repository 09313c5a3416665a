//! Correlation-aware layouts (Tsunami/COAX **extension** — beyond the
//! Flood paper): soft-FD collapse and exact-envelope tightening, on vs off.
//!
//! The [`highdim::correlated`] generator plants two host dimensions, each
//! with two dependents (`dep ≈ f(host) + noise`), plus independents. Every
//! workload template filters at least one dependent, so with correlation
//! **off** the optimizer must spend its cell budget across redundant
//! dimensions and projects rectangles over a diagonal support; with
//! correlation **on** the dependents collapse out of the grid, their
//! predicates route through the hosts, and the index tightens projections
//! through exact per-column envelopes.
//!
//! Three sweeps, each reporting median per-query latency for both modes:
//!
//! * **strength**: noise width from collapse-grade to undetectable — the
//!   speedup should shrink to ~1× as the dependency dissolves;
//! * **on/off ratio** at the strongest settings — the headline numbers
//!   (at `--scale` ≥ 1 the `clean` speedup is asserted ≥ 1.5×; `strong`
//!   adds 1% broken rows on top and is printed alongside — the calibrated
//!   cost model re-measures the machine each run, so learned layouts and
//!   ratios wobble more than `clean`'s);
//! * **outlier sensitivity**: broken-row rates from 0 to past the
//!   detection budget — exploitation must degrade gracefully, never
//!   diverge.
//!
//! Every query is executed in both modes and the counts are asserted
//! equal — result identity is enforced, not assumed.

use crate::harness::{percentiles_from_ns, Harness};
use flood_core::optimizer::OptimizedLayout;
use flood_core::{FloodConfig, FloodIndex};
use flood_data::datasets::highdim;
use flood_data::workloads::QueryBuilder;
use flood_store::{CountVisitor, MultiDimIndex, RangeQuery, Table};

/// Floor on the `clean` setting's off/on p50 ratio.
const CLEAN_SPEEDUP_FLOOR: f64 = 1.5;

/// The sweep's generator settings: `(name, noise_frac, outlier_rate)`.
const SWEEP: &[(&str, f64, f64)] = &[
    // Strength sweep (1% broken rows throughout).
    ("strong", 0.005, 0.01),
    ("medium", 0.05, 0.01),
    ("weak", 0.30, 0.01),
    // Outlier sensitivity at collapse-grade noise.
    ("clean", 0.005, 0.0),
    ("dirty", 0.005, 0.05),
];

/// Learn a layout with correlation on or off and build the index over it —
/// the learned layout carries the FDs the search collapsed (none when off),
/// so the index's envelope tightening follows the same switch.
fn learn_build(
    h: &Harness,
    table: &Table,
    train: &[RangeQuery],
    enabled: bool,
) -> (FloodIndex, OptimizedLayout) {
    let mut ocfg = h.cfg.optimizer(table.len());
    // The stock experiment budget samples ~2% of the rows — enough for the
    // paper experiments' 4–6 indexed dims, but too coarse to justify fine
    // host grids once collapsing concentrates the cell budget on 2–3 dims.
    // Both modes get the same roomier sample so the comparison stays fair.
    ocfg.data_sample = (table.len() / 8).clamp(1_000, 20_000);
    ocfg.correlation.enabled = enabled;
    let learned = h.learn(table, train, ocfg);
    let (index, _) = h.build_flood(table, learned.layout.clone(), FloodConfig::default());
    (index, learned)
}

/// Median per-query latency (best of `reps` per query), mean points
/// scanned, and the per-query counts for the result-identity check.
fn measure(
    h: &Harness,
    index: &FloodIndex,
    test: &[RangeQuery],
    reps: usize,
) -> (u64, u64, Vec<u64>) {
    let mut best_ns = Vec::with_capacity(test.len());
    let mut counts = Vec::with_capacity(test.len());
    let mut scanned = 0u64;
    for q in test {
        let mut first = None;
        let ns = h.latencies(reps.max(1), |_| {
            let mut v = CountVisitor::default();
            let stats = index.execute(q, None, &mut v);
            first.get_or_insert((v.count, stats.points_scanned));
        });
        let (count, points) = first.expect("at least one rep");
        best_ns.push(ns.into_iter().min().expect("at least one rep"));
        counts.push(count);
        scanned += points;
    }
    (
        percentiles_from_ns(&best_ns).p50,
        scanned / test.len().max(1) as u64,
        counts,
    )
}

/// Run the experiment at the configured scale.
pub fn run(h: &Harness) {
    let cfg = &h.cfg;
    let d = 8;
    let n = (80_000.0 * if cfg.full { 2.0 } else { 1.0 } * cfg.scale) as usize;
    let reps = if cfg.full { 7 } else { 5 };
    println!("\n=== correlate: soft-FD collapse on/off (highdim::correlated d={d}, n={n}) ===");
    println!(
        "{:>8} {:>7} {:>9} {:>12} {:>12} {:>9} {:>9} {:>9}  layout (on)",
        "setting",
        "noise",
        "outliers",
        "on p50(µs)",
        "off p50(µs)",
        "speedup",
        "on scan",
        "off scan"
    );

    for &(name, noise_frac, outlier_rate) in SWEEP {
        let table = h.generate(|| highdim::correlated(n, d, cfg.seed, noise_frac, outlier_rate));
        let templates = highdim::correlated_templates(d, cfg.target_selectivity());
        let weights = vec![1.0; templates.len()];
        let mut qb = QueryBuilder::new(&table, cfg.seed);
        let w = qb.workload(
            "correlated",
            &templates,
            &weights,
            cfg.queries,
            Some(cfg.target_selectivity()),
        );

        let (on, learned) = learn_build(h, &table, &w.train, true);
        let (off, _) = learn_build(h, &table, &w.train, false);

        let (on_p50, on_scanned, on_counts) = measure(h, &on, &w.test, reps);
        let (off_p50, off_scanned, off_counts) = measure(h, &off, &w.test, reps);

        // Result identity: collapsing + envelope tightening must never
        // change what a query returns, outliers and all.
        assert_eq!(
            on_counts, off_counts,
            "correlation-on diverged from off at setting {name}"
        );

        let speedup = off_p50 as f64 / (on_p50 as f64).max(1.0);
        let mut note = learned.layout.to_string();
        for (what, dims) in [
            ("collapsed", &learned.collapsed),
            ("reweighted", &learned.reweighted),
        ] {
            if !dims.is_empty() {
                note.push_str(&format!("  [{what} {dims:?}]"));
            }
        }
        println!(
            "{:>8} {:>7.3} {:>8.0}% {:>12.1} {:>12.1} {:>8.2}x {:>9} {:>9}  {note}",
            name,
            noise_frac,
            outlier_rate * 100.0,
            on_p50 as f64 / 1e3,
            off_p50 as f64 / 1e3,
            speedup,
            on_scanned,
            off_scanned,
        );
        // The headline win, gated on the noise-free setting at the scale
        // BASELINES.md records: `clean` sits far above the bar, `strong`
        // wobbles with machine noise.
        if name == "clean" && cfg.scale >= 1.0 {
            assert!(
                speedup >= CLEAN_SPEEDUP_FLOOR,
                "correlation-on speedup {speedup:.2}x on `clean` is below the \
                 {CLEAN_SPEEDUP_FLOOR}x floor"
            );
        }
    }
    println!(
        "\nresults are asserted identical between modes on every query; \
         speedups are medians on this machine (see BASELINES.md)"
    );
}
