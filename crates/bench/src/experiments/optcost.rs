//! Optimizer search cost (Fig 15/16 territory): layout-learning wall-clock
//! and cache counters vs dimensionality and table size.
//!
//! The paper's learning-time curves (Figs 15/16 left panels) measure
//! exactly this loop: Algorithm 1's gradient descent probing candidate
//! column vectors against the flattened sample. Tsunami (Ding et al., VLDB
//! 2020) calls layout-search cost the practical bottleneck of grid-style
//! learned indexes; the `(dim, column_count)` statistics cache is what
//! keeps it flat here, and the memo-hit and recount/reuse columns show how
//! much of each search it answered (`prop_incremental.rs` pins the cache
//! to a from-scratch sample scan bit for bit).

use super::ExpConfig;
use crate::harness::calibrated_cost_model;
use crate::phases::time_phase;
use flood_core::optimizer::OptimizedLayout;
use flood_core::{LayoutOptimizer, OptimizerConfig};
use flood_data::datasets::uniform;
use flood_data::workloads::{DimFilter, QueryBuilder, QueryTemplate};
use flood_store::{RangeQuery, Table};
use std::time::Instant;

/// One sweep row.
pub struct OptRow {
    /// Dimensions in the table.
    pub dims: usize,
    /// Rows in the table.
    pub rows: usize,
    /// Mean learning wall-clock (ms).
    pub search_ms: f64,
    /// Diagnostics from the last trial.
    pub diag: OptimizedLayout,
}

/// A workload whose templates rotate 3-dimensional filters across every
/// dimension, so each dimension is a sort candidate and carries masks.
fn rotating_workload(table: &Table, cfg: &ExpConfig) -> Vec<RangeQuery> {
    let d = table.dims();
    let k = d.min(3);
    let per_dim = cfg.target_selectivity().powf(1.0 / k as f64);
    let templates: Vec<QueryTemplate> = (0..d)
        .map(|i| {
            QueryTemplate::new(
                &format!("rot{i}"),
                (0..k)
                    .map(|j| DimFilter::range((i + j) % d, per_dim))
                    .collect(),
            )
        })
        .collect();
    let weights = vec![1.0; templates.len()];
    let mut qb = QueryBuilder::new(table, cfg.seed);
    qb.workload("optcost", &templates, &weights, cfg.queries, None)
        .train
}

/// Time one `(dims, rows)` point, averaging over `trials` seeds.
pub fn run_point(cfg: &ExpConfig, d: usize, n: usize, trials: usize) -> OptRow {
    let table = time_phase("data-gen", || uniform::generate(n, d, cfg.seed));
    let workload = time_phase("data-gen", || rotating_workload(&table, cfg));
    let cost = calibrated_cost_model().clone();

    let mut total = 0.0;
    let mut last = None;
    for trial in 0..trials.max(1) {
        let opt_cfg = OptimizerConfig {
            seed: cfg.seed.wrapping_add(trial as u64),
            ..cfg.optimizer(n)
        };
        let optimizer = LayoutOptimizer::with_config(cost.clone(), opt_cfg);
        let t0 = Instant::now();
        let learned = time_phase("layout-opt", || optimizer.optimize(&table, &workload));
        total += t0.elapsed().as_secs_f64() * 1e3;
        last = Some(learned);
    }
    OptRow {
        dims: d,
        rows: n,
        search_ms: total / trials.max(1) as f64,
        diag: last.expect("at least one trial"),
    }
}

fn print_rows(rows: &[OptRow]) {
    println!(
        "{:>5} {:>9} {:>11} {:>7} {:>10} {:>9} {:>8}",
        "dims", "rows", "search(ms)", "evals", "memo-hits", "recounts", "reuses"
    );
    for r in rows {
        println!(
            "{:>5} {:>9} {:>11.1} {:>7} {:>10} {:>9} {:>8}",
            r.dims,
            r.rows,
            r.search_ms,
            r.diag.cost_evals,
            r.diag.cache_hits,
            r.diag.dim_recounts,
            r.diag.dim_reuses,
        );
    }
}

/// Run the experiment at the configured scale.
pub fn run(cfg: &ExpConfig) {
    println!("\n=== optimizer search cost and cache counters ===");
    let trials = if cfg.full { 3 } else { 2 };

    // Dimensionality sweep (Fig 16 territory: more dimensions, more
    // candidates, more probes per descent step).
    let n = (50_000.0 * cfg.scale) as usize;
    let dim_grid: &[usize] = if cfg.full {
        &[2, 4, 8, 16, 24]
    } else {
        &[2, 4, 8, 16]
    };
    println!("\n--- dimensionality sweep (uniform, n={n}) ---");
    let rows: Vec<OptRow> = dim_grid
        .iter()
        .map(|&d| run_point(cfg, d, n.max(256), trials))
        .collect();
    print_rows(&rows);

    // Table-size sweep (Fig 15 territory: the data sample — and with it
    // every mask build and re-scan — grows with the table until the
    // optimizer's sample cap).
    let size_grid: Vec<usize> = if cfg.full {
        vec![25_000, 100_000, 400_000, 1_600_000]
    } else {
        vec![25_000, 100_000, 400_000]
    };
    println!("\n--- table-size sweep (uniform, d=4) ---");
    let rows: Vec<OptRow> = size_grid
        .iter()
        .map(|&base| {
            run_point(
                cfg,
                4,
                ((base as f64 * cfg.scale) as usize).max(256),
                trials,
            )
        })
        .collect();
    print_rows(&rows);

    println!(
        "\nreuses ≫ recounts is the per-dimension cache at work; the live signals are \
         core.search_ms and core.dim_reuse_rate in benchmark/README.md."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_modes_agree_and_report_diagnostics() {
        let cfg = ExpConfig {
            scale: 0.02,
            queries: 6,
            ..Default::default()
        };
        let row = run_point(&cfg, 4, 2_000, 1);
        assert!(row.search_ms > 0.0);
        assert!(row.diag.cost_evals > 0);
        assert!(
            row.diag.dim_reuses > row.diag.dim_recounts,
            "at 4 dims most probes reuse cached dimensions: {} recounts vs {} reuses",
            row.diag.dim_recounts,
            row.diag.dim_reuses
        );
    }
}
