//! Adaptive re-learning under workload drift (§8, Shifting workloads; the
//! robustness axis Tsunami and the learned-multidim survey call out).
//!
//! A phased workload rotates its hot dimensions, selectivity, and center
//! of mass (`flood_data::workloads::drift`). Three contenders run the same
//! stream:
//!
//! - **full-scan** — the floor: immune to drift, slow everywhere;
//! - **frozen** — Flood's layout learned on phase 0 and never touched:
//!   the paper's static index, fast until the shift;
//! - **adaptive** — [`AdaptiveFlood`]: detects degradation and re-learns;
//!   the data sample is flattened once and each degradation check's
//!   pricing work feeds the re-learn search that follows.
//!
//! Reported per phase: average *query* latency (adaptation excluded — it
//! is reported separately as the re-learn columns), re-learn counts, and
//! re-learn search cost; then the adaptive loop's work ledger.

use super::ExpConfig;
use crate::harness::{calibrated_cost_model, fmt_ms, learn_flood, run_workload};
use crate::phases::time_phase;
use flood_baselines::FullScan;
use flood_core::{
    AdaptiveConfig, AdaptiveDiagnostics, AdaptiveFlood, FloodConfig, LayoutOptimizer,
};
use flood_data::workloads::drift::{DriftConfig, DriftMode, DriftingWorkload};
use flood_data::DatasetKind;
use flood_store::{CountVisitor, MultiDimIndex, RangeQuery, Table};
use std::time::{Duration, Instant};

/// Per-phase measurements for one adaptive contender.
struct AdaptivePhase {
    /// Mean per-query execution time (adaptation excluded).
    query_avg: Duration,
    /// Wall-clock spent observing + checking + re-learning + rebuilding.
    adapt_total: Duration,
    /// Re-learn search wall-clock this phase.
    relearn_wall: Duration,
    /// Layout swaps this phase.
    relearns: usize,
}

/// Drive one adaptive index through a phase, separating query time from
/// adaptation time.
fn run_adaptive_phase(a: &mut AdaptiveFlood, queries: &[RangeQuery]) -> AdaptivePhase {
    let d0 = a.diagnostics();
    let mut query_time = Duration::ZERO;
    let mut adapt_time = Duration::ZERO;
    for q in queries {
        let mut v = CountVisitor::default();
        let t0 = Instant::now();
        a.index().execute(q, None, &mut v);
        query_time += t0.elapsed();
        let t1 = Instant::now();
        a.observe(q);
        adapt_time += t1.elapsed();
    }
    crate::phases::record_phase("query-exec", query_time);
    crate::phases::record_phase("layout-opt", adapt_time);
    let d1 = a.diagnostics();
    AdaptivePhase {
        query_avg: query_time / queries.len().max(1) as u32,
        adapt_total: adapt_time,
        relearn_wall: d1
            .relearn_wall_total()
            .saturating_sub(d0.relearn_wall_total()),
        relearns: d1.relearns - d0.relearns,
    }
}

/// One full drift run (one mode), printed as a per-phase table. Returns the
/// adaptive contender's final diagnostics.
fn run_mode(cfg: &ExpConfig, table: &Table, drift: &DriftingWorkload) -> AdaptiveDiagnostics {
    let n = table.len();
    let opt_cfg = cfg.optimizer(n);
    let qpp = drift.phases[0].queries.len();

    // Contenders. The frozen index and the adaptive one learn on the same
    // phase-0 training split; the full scan needs no tuning.
    let frozen = learn_flood(table, &drift.train, opt_cfg);
    let full = FullScan::build(table);
    let mut adaptive = time_phase("layout-opt", || {
        AdaptiveFlood::build(
            table,
            &drift.train,
            LayoutOptimizer::with_config(calibrated_cost_model().clone(), opt_cfg),
            FloodConfig::default(),
            AdaptiveConfig {
                window: (qpp / 3).clamp(12, 120),
                check_every: (qpp / 6).clamp(6, 60),
                degradation_factor: 1.25,
            },
        )
    });

    println!(
        "{:<6} {:<10} {:>10} {:>10} {:>12} {:>9} {:>12} {:>10}",
        "phase",
        "hot-dims",
        "scan(ms)",
        "frozen(ms)",
        "adaptive(ms)",
        "relearns",
        "relearn(ms)",
        "adapt(ms)"
    );
    for phase in &drift.phases {
        let (scan_avg, _) = run_workload(&full, &phase.queries, None);
        let (frozen_avg, _) = run_workload(&frozen, &phase.queries, None);
        let pa = run_adaptive_phase(&mut adaptive, &phase.queries);
        println!(
            "{:<6} {:<10} {:>10} {:>10} {:>12} {:>9} {:>12.1} {:>10.1}",
            phase.name,
            format!("{:?}", phase.hot_dims),
            fmt_ms(scan_avg),
            fmt_ms(frozen_avg),
            fmt_ms(pa.query_avg),
            pa.relearns,
            pa.relearn_wall.as_secs_f64() * 1e3,
            pa.adapt_total.as_secs_f64() * 1e3,
        );
    }
    adaptive.diagnostics()
}

/// Run the experiment at the configured scale.
pub fn run(cfg: &ExpConfig) {
    println!("\n=== adaptive re-learning under workload drift (§8) ===");
    let n = cfg.rows(DatasetKind::Sales);
    let (table, _) = time_phase("data-gen", || {
        let ds = DatasetKind::Sales.generate(n, cfg.seed);
        (ds.table, ())
    });
    let qpp = (cfg.queries * 2).max(24);
    let modes: &[DriftMode] = if cfg.full {
        &[DriftMode::Abrupt, DriftMode::Gradual]
    } else {
        &[DriftMode::Abrupt]
    };
    for &mode in modes {
        let drift = time_phase("data-gen", || {
            DriftingWorkload::generate(
                &table,
                &DriftConfig {
                    phases: if cfg.full { 6 } else { 4 },
                    queries_per_phase: qpp,
                    filters_per_query: 2,
                    target_selectivity: cfg.target_selectivity(),
                    mode,
                    seed: cfg.seed,
                },
            )
        });
        println!(
            "\n--- {} drift: {} phases x {} queries, sales n={} ---",
            mode.label(),
            drift.phases.len(),
            qpp,
            n
        );
        let d = run_mode(cfg, &table, &drift);
        println!(
            "\nwork ledger: {} checks, {} re-learn searches in {:.1} ms ({} adopted); \
             {} sample flatten(s), {} window flatten(s), {} window reuse(s), \
             {} cross-re-learn cache hits",
            d.checks,
            d.relearn_searches,
            d.relearn_wall_total().as_secs_f64() * 1e3,
            d.relearns,
            d.sample_flattens,
            d.window_flattens,
            d.window_reuses,
            d.cache_hits_across_relearns,
        );
        // The adaptive lifecycle's telemetry, for `repro --metrics`.
        d.export(flood_obs::metrics::global(), "adapt");
    }
    println!(
        "\nthe frozen layout keeps phase-0 tuning; the adaptive index re-learns when the \
         cost model prices the window as degraded. see BASELINES.md for reference numbers."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drift loop end-to-end at tiny scale: the adaptive index must
    /// actually re-learn on the rotated phases, flattening the data sample
    /// exactly once and feeding each search from its degradation check.
    #[test]
    fn adaptives_relearn_and_share_the_sample() {
        let cfg = ExpConfig {
            scale: 0.05,
            queries: 12,
            ..Default::default()
        };
        let table = DatasetKind::Sales
            .generate(cfg.rows(DatasetKind::Sales), cfg.seed)
            .table;
        let drift = DriftingWorkload::generate(
            &table,
            &DriftConfig {
                phases: 3,
                queries_per_phase: 24,
                filters_per_query: 2,
                target_selectivity: cfg.target_selectivity(),
                mode: DriftMode::Abrupt,
                seed: cfg.seed,
            },
        );
        let d = run_mode(&cfg, &table, &drift);
        assert!(
            d.relearns >= 1,
            "rotated hot dims must trigger a re-learn: {d:?}"
        );
        assert_eq!(d.sample_flattens, 1, "one flatten, ever: {d:?}");
        assert!(d.cache_hits_across_relearns > 0);
    }
}
