//! Fig 11: the component ablation — Simple Grid → +Sort Dim → +Flattening
//! → +Learning.
//!
//! The baseline "Simple Grid" is a d-dimensional histogram over all
//! filtered dimensions with columns proportional to each dimension's
//! selectivity (§7.4). "+Sort Dim" sorts the last dimension instead of
//! gridding it, reallocating its columns to the rest. "+Flattening" swaps
//! uniform column spacing for learned CDFs. "+Learning" runs the full
//! layout optimizer.

use crate::harness::{avg_selectivity, fmt_ms, index_dims, Harness, RunResult};
use flood_core::{Flattening, FloodConfig, Layout};
use flood_data::DatasetKind;
use flood_store::{RangeQuery, Table};

/// The four ablation variants for one dataset.
pub fn run_dataset(h: &Harness, kind: DatasetKind) -> Vec<(&'static str, RunResult)> {
    let (ds, w) = h.dataset(kind);
    let table = &ds.table;
    let agg = Some(kind.agg_dim());
    // Filtered dims, most selective first (the ablation's fixed ordering).
    let dims = index_dims(table, &w.train);
    let target_cells = (table.len() / 1_024).max(16) as f64;
    let grid = |layout: Layout, flattening: Flattening| {
        let fcfg = FloodConfig {
            flattening,
            ..Default::default()
        };
        h.drive(&h.build_flood(table, layout, fcfg).0, &w.test, agg)
    };

    let mut out = Vec::new();

    // 1. Simple Grid: histogram over all filtered dims, uniform spacing,
    //    columns proportional to selectivity.
    let cols = proportional_cols(table, &w.train, &dims, target_cells);
    let layout = Layout::histogram(dims.clone(), cols);
    out.push(("Simple Grid", grid(layout, Flattening::Uniform)));

    // 2. +Sort Dim: last dim becomes the sort dimension; its columns are
    //    reallocated to the remaining dims.
    if let Some((_sort, gridded)) = dims.split_last().filter(|(_, rest)| !rest.is_empty()) {
        let cols = proportional_cols(table, &w.train, gridded, target_cells);
        let layout = Layout::new(dims.clone(), cols);
        out.push(("+Sort Dim", grid(layout.clone(), Flattening::Uniform)));

        // 3. +Flattening: learned CDF column spacing.
        out.push(("+Flattening", grid(layout, Flattening::Learned)));
    }

    // 4. +Learning: the full optimizer.
    let (flood, _) = h.learn_flood(table, &w.train);
    out.push(("+Learning", h.drive(&flood, &w.test, agg)));
    out
}

/// Columns proportional to each dimension's (inverse) selectivity, scaled
/// so total cells ≈ `target_cells`.
fn proportional_cols(
    table: &Table,
    train: &[RangeQuery],
    dims: &[usize],
    target_cells: f64,
) -> Vec<usize> {
    // log-space shares ∝ log(1/sel), normalized to log(target_cells).
    let shares: Vec<f64> = dims
        .iter()
        .map(|&d| avg_selectivity(table, train, d).map_or(1.0, |s| s.max(1e-4)))
        .map(|sel| (1.0 / sel).ln().max(0.1))
        .collect();
    let sum: f64 = shares.iter().sum();
    let budget = target_cells.ln();
    shares
        .iter()
        .map(|&sh| ((sh / sum * budget).exp().round() as usize).clamp(1, 4_096))
        .collect()
}

/// Print all four datasets.
pub fn run(h: &Harness) {
    println!("\n=== Fig 11: component ablation ===");
    for kind in DatasetKind::ALL {
        println!("\n--- {} ---", kind.name());
        println!("{:<14} {:>14} {:>10}", "variant", "avg query(ms)", "SO");
        for (name, r) in run_dataset(h, kind) {
            println!(
                "{:<14} {:>14} {:>10.2}",
                name,
                fmt_ms(r.avg_ms()),
                r.scan_overhead()
            );
        }
    }
}
