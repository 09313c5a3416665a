//! Fig 8: index size vs query time (the Pareto frontier). Baselines sweep
//! their page size; Flood sweeps its cell budget; the paper's point is that
//! Flood sits below-left of everything else.

use crate::harness::{fmt_bytes, fmt_ms, index_dims, Baseline, Harness, RunResult};
use flood_core::FloodConfig;
use flood_data::DatasetKind;

/// Run the sweep on one dataset and print (size, time) series per index.
pub fn run_dataset(h: &Harness, kind: DatasetKind) {
    let (ds, w) = h.dataset(kind);
    let table = &ds.table;
    let dims = index_dims(table, &w.train);
    let agg = Some(kind.agg_dim());
    let pages: &[usize] = if h.cfg.full {
        &[64, 256, 1024, 4096, 16_384]
    } else {
        &[256, 1_024, 4_096]
    };

    println!("\n--- {}: size vs query time ---", ds.name());
    println!("{:<14} {:>10} {:>14}", "index", "size", "avg query(ms)");
    for &p in pages {
        for b in Baseline::PAGED {
            if let Some((idx, _)) = h.build_baseline(b, table, &dims, Some(p)) {
                report(&h.drive(&idx, &w.test, agg));
            }
        }
    }
    // Flood: sweep the total-cell budget around the learned layout.
    let (flood, _) = h.learn_flood(table, &w.train);
    let learned = flood.layout().clone();
    report(&h.drive(&flood, &w.test, agg));
    for factor in [0.25f64, 4.0] {
        let k = learned.cols().len().max(1) as f64;
        let scaled: Vec<usize> = learned
            .cols()
            .iter()
            .map(|&c| ((c as f64 * factor.powf(1.0 / k)).round() as usize).max(1))
            .collect();
        if scaled != learned.cols() {
            let (idx, _) = h.build_flood(table, learned.with_cols(scaled), FloodConfig::default());
            report(&h.drive(&idx, &w.test, agg));
        }
    }
}

fn report(r: &RunResult) {
    println!(
        "{:<14} {:>10} {:>14}",
        r.index,
        fmt_bytes(r.index_size),
        fmt_ms(r.avg_ms())
    );
}

/// All four datasets.
pub fn run(h: &Harness) {
    println!("\n=== Fig 8: index size vs query time (Pareto frontier) ===");
    for kind in DatasetKind::ALL {
        run_dataset(h, kind);
    }
}
